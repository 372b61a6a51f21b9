-- 24 hand-written 6-8-join queries for deep_plan on db_main (Titles=2500).
-- Every query is anchored by a title predicate that keeps well under 2% of
-- the titles. Title popularity is power-law (the top title has ~400 cast
-- rows and hundreds of rows in every other fact table), so a query that
-- joined several unfiltered fact tables would explode whenever the seed puts
-- a popular title inside its anchor. Each query therefore leaves at most one
-- large fact table unfiltered and cuts the others by an equality predicate,
-- which bounds the per-title product near 50k rows under any join order:
-- join-order search, LPCE-I inference and LPCE-R refinement cost more than
-- execution. Setup fails if the reference plan of any query needs more than
-- 5M executor work units.
-- A "-- name: property" comment opens a query and ";" closes it.

-- d01: 6 joins, cast and company chains, anchor = 0.8% phonetic range
SELECT COUNT(*) FROM title, kind_type, cast_info, name, role_type, movie_companies, company_name
  WHERE title.kind_id = kind_type.id AND cast_info.movie_id = title.id AND cast_info.person_id = name.id
    AND cast_info.role_id = role_type.id AND movie_companies.movie_id = title.id
    AND movie_companies.company_id = company_name.id
    AND title.phonetic_code < 8 AND movie_companies.company_type_id = 1;
-- d02: 6 joins, cast star plus keyword chain, anchor = 1% clustered id range
SELECT COUNT(*) FROM title, cast_info, name, char_name, role_type, movie_keyword, keyword
  WHERE cast_info.movie_id = title.id AND cast_info.person_id = name.id
    AND cast_info.person_role_id = char_name.id AND cast_info.role_id = role_type.id
    AND movie_keyword.movie_id = title.id AND movie_keyword.keyword_id = keyword.id
    AND title.id < 25 AND cast_info.role_id = 0;
-- d03: 7 joins, three fact tables each with its dimension, anchor = one year of one kind
SELECT COUNT(*) FROM title, kind_type, movie_info, info_type, movie_keyword, keyword, movie_companies, company_type
  WHERE title.kind_id = kind_type.id AND movie_info.movie_id = title.id AND movie_info.info_type_id = info_type.id
    AND movie_keyword.movie_id = title.id AND movie_keyword.keyword_id = keyword.id
    AND movie_companies.movie_id = title.id AND movie_companies.company_type_id = company_type.id
    AND title.production_year = 1962 AND title.kind_id = 1
    AND movie_info.info_type_id = 7 AND movie_companies.company_type_id = 2 AND movie_keyword.keyword_id < 100;
-- d04: 7 joins, full cast star plus the small info table, anchor = one season number
SELECT COUNT(*) FROM title, kind_type, movie_info_idx, info_type, cast_info, name, char_name, role_type
  WHERE title.kind_id = kind_type.id AND movie_info_idx.movie_id = title.id AND movie_info_idx.info_type_id = info_type.id
    AND cast_info.movie_id = title.id AND cast_info.person_id = name.id
    AND cast_info.person_role_id = char_name.id AND cast_info.role_id = role_type.id
    AND title.season_nr = 7 AND cast_info.role_id <= 1;
-- d05: 8 joins, company star, info_idx chain and cast roles, anchor = IN list
SELECT COUNT(*) FROM title, kind_type, movie_companies, company_name, company_type, movie_info_idx, info_type, cast_info, role_type
  WHERE title.kind_id = kind_type.id AND movie_companies.movie_id = title.id
    AND movie_companies.company_id = company_name.id AND movie_companies.company_type_id = company_type.id
    AND movie_info_idx.movie_id = title.id AND movie_info_idx.info_type_id = info_type.id
    AND cast_info.movie_id = title.id AND cast_info.role_id = role_type.id
    AND title.phonetic_code IN (3, 141, 592, 653, 897)
    AND movie_companies.company_type_id = 0 AND movie_info_idx.info_type_id = 5 AND cast_info.role_id = 0;
-- d06: 8 joins, cast star and company star together, anchor = mid-table id range
SELECT COUNT(*) FROM title, kind_type, cast_info, name, char_name, role_type, movie_companies, company_name, company_type
  WHERE title.kind_id = kind_type.id AND cast_info.movie_id = title.id AND cast_info.person_id = name.id
    AND cast_info.person_role_id = char_name.id AND cast_info.role_id = role_type.id
    AND movie_companies.movie_id = title.id AND movie_companies.company_id = company_name.id
    AND movie_companies.company_type_id = company_type.id
    AND title.id >= 1200 AND title.id < 1220 AND cast_info.role_id = 1;
-- d07: 6 joins, info, keyword and info_idx chains, anchor = earliest years (kind 0 only)
SELECT COUNT(*) FROM title, kind_type, movie_info, info_type, movie_keyword, keyword, movie_info_idx
  WHERE title.kind_id = kind_type.id AND movie_info.movie_id = title.id AND movie_info.info_type_id = info_type.id
    AND movie_keyword.movie_id = title.id AND movie_keyword.keyword_id = keyword.id
    AND movie_info_idx.movie_id = title.id
    AND title.production_year < 1942 AND movie_info.info_type_id = 12 AND movie_info_idx.info_type_id = 3;
-- d08: 6 joins, anchor = rare kind and low season (two correlated predicates)
SELECT COUNT(*) FROM title, kind_type, cast_info, name, movie_companies, company_name, company_type
  WHERE title.kind_id = kind_type.id AND cast_info.movie_id = title.id AND cast_info.person_id = name.id
    AND movie_companies.movie_id = title.id AND movie_companies.company_id = company_name.id
    AND movie_companies.company_type_id = company_type.id
    AND title.kind_id = 6 AND title.season_nr <= 3 AND cast_info.role_id <= 1;
-- d09: 7 joins, extra selective filter on a chain end (gender) under a phonetic anchor
SELECT COUNT(*) FROM title, cast_info, name, char_name, role_type, movie_keyword, keyword, kind_type
  WHERE cast_info.movie_id = title.id AND cast_info.person_id = name.id
    AND cast_info.person_role_id = char_name.id AND cast_info.role_id = role_type.id
    AND movie_keyword.movie_id = title.id AND movie_keyword.keyword_id = keyword.id
    AND title.kind_id = kind_type.id
    AND title.phonetic_code >= 990 AND name.gender = 1 AND cast_info.role_id = 2;
-- d10: 7 joins, anchor range plus dominant-country filter at the far end of a chain
SELECT COUNT(*) FROM title, movie_companies, company_name, company_type, movie_info, info_type, cast_info, role_type
  WHERE movie_companies.movie_id = title.id AND movie_companies.company_id = company_name.id
    AND movie_companies.company_type_id = company_type.id
    AND movie_info.movie_id = title.id AND movie_info.info_type_id = info_type.id
    AND cast_info.movie_id = title.id AND cast_info.role_id = role_type.id
    AND title.id >= 300 AND title.id < 325 AND company_name.country_code = 0
    AND movie_info.info_type_id = 20 AND cast_info.role_id = 0 AND movie_companies.company_type_id = 3;
-- d11: 8 joins, three fact tables with five dimensions, anchor = an id range of 12 titles
SELECT COUNT(*) FROM title, kind_type, cast_info, name, char_name, movie_info, info_type, movie_companies, company_name
  WHERE title.kind_id = kind_type.id AND cast_info.movie_id = title.id AND cast_info.person_id = name.id
    AND cast_info.person_role_id = char_name.id
    AND movie_info.movie_id = title.id AND movie_info.info_type_id = info_type.id
    AND movie_companies.movie_id = title.id AND movie_companies.company_id = company_name.id
    AND title.id >= 2000 AND title.id < 2012
    AND cast_info.role_id = 0 AND movie_info.info_type_id = 4 AND movie_companies.company_type_id = 1;
-- d12: 6 joins, year<->info correlation inside a deep plan, anchor = one year of kind 2
SELECT COUNT(*) FROM title, kind_type, movie_info, info_type, movie_info_idx, cast_info, role_type
  WHERE title.kind_id = kind_type.id AND movie_info.movie_id = title.id AND movie_info.info_type_id = info_type.id
    AND movie_info_idx.movie_id = title.id
    AND cast_info.movie_id = title.id AND cast_info.role_id = role_type.id
    AND title.production_year = 1975 AND title.kind_id = 2 AND movie_info.info < 2000
    AND movie_info_idx.info_type_id = 8 AND cast_info.role_id = 0;
-- d13: 7 joins, kind<->keyword cluster correlation under a phonetic anchor
SELECT COUNT(*) FROM title, kind_type, movie_keyword, keyword, movie_companies, company_name, company_type, movie_info_idx
  WHERE title.kind_id = kind_type.id AND movie_keyword.movie_id = title.id AND movie_keyword.keyword_id = keyword.id
    AND movie_companies.movie_id = title.id AND movie_companies.company_id = company_name.id
    AND movie_companies.company_type_id = company_type.id AND movie_info_idx.movie_id = title.id
    AND title.phonetic_code >= 500 AND title.phonetic_code < 512 AND keyword.phonetic_code < 1000
    AND movie_companies.company_type_id = 2 AND movie_info_idx.info_type_id = 9 AND movie_keyword.keyword_id < 150;
-- d14: 8 joins, cast star plus info chain and companies, anchor = one season number
SELECT COUNT(*) FROM title, kind_type, cast_info, name, char_name, role_type, movie_info, info_type, movie_companies
  WHERE title.kind_id = kind_type.id AND cast_info.movie_id = title.id AND cast_info.person_id = name.id
    AND cast_info.person_role_id = char_name.id AND cast_info.role_id = role_type.id
    AND movie_info.movie_id = title.id AND movie_info.info_type_id = info_type.id
    AND movie_companies.movie_id = title.id
    AND title.season_nr = 19
    AND cast_info.role_id = 0 AND movie_info.info_type_id = 15 AND movie_companies.company_type_id = 1;
-- d15: 6 joins, lead roles only under a 1% id range
SELECT COUNT(*) FROM title, kind_type, cast_info, name, char_name, movie_keyword, keyword
  WHERE title.kind_id = kind_type.id AND cast_info.movie_id = title.id AND cast_info.person_id = name.id
    AND cast_info.person_role_id = char_name.id
    AND movie_keyword.movie_id = title.id AND movie_keyword.keyword_id = keyword.id
    AND title.id >= 700 AND title.id < 725 AND cast_info.role_id <= 1;
-- d16: 7 joins, anchor = one year of the dominant kind (widest of the year anchors)
SELECT COUNT(*) FROM title, kind_type, movie_companies, company_name, company_type, movie_info, info_type, movie_info_idx
  WHERE title.kind_id = kind_type.id AND movie_companies.movie_id = title.id AND movie_companies.company_id = company_name.id
    AND movie_companies.company_type_id = company_type.id
    AND movie_info.movie_id = title.id AND movie_info.info_type_id = info_type.id
    AND movie_info_idx.movie_id = title.id
    AND title.production_year = 1955 AND title.kind_id = 0
    AND movie_info.info_type_id = 30 AND movie_info_idx.info_type_id = 2;
-- d17: 8 joins, every dimension of the cast and company stars, anchor = IN list
SELECT COUNT(*) FROM title, cast_info, name, char_name, role_type, movie_companies, company_name, company_type, kind_type
  WHERE cast_info.movie_id = title.id AND cast_info.person_id = name.id
    AND cast_info.person_role_id = char_name.id AND cast_info.role_id = role_type.id
    AND movie_companies.movie_id = title.id AND movie_companies.company_id = company_name.id
    AND movie_companies.company_type_id = company_type.id AND title.kind_id = kind_type.id
    AND title.phonetic_code IN (17, 230, 444, 708, 951) AND name.gender = 0 AND cast_info.role_id = 3;
-- d18: 6 joins, empty result (info values that early years cannot reach) found only after joining
SELECT COUNT(*) FROM title, movie_info, info_type, movie_keyword, keyword, cast_info, name
  WHERE movie_info.movie_id = title.id AND movie_info.info_type_id = info_type.id
    AND movie_keyword.movie_id = title.id AND movie_keyword.keyword_id = keyword.id
    AND cast_info.movie_id = title.id AND cast_info.person_id = name.id
    AND title.production_year < 1945 AND movie_info.info > 3950 AND cast_info.role_id = 0;
-- d19: 7 joins, anchor = TV kind with one season value, filters at two chain ends
SELECT COUNT(*) FROM title, kind_type, cast_info, name, char_name, role_type, movie_keyword, keyword
  WHERE title.kind_id = kind_type.id AND cast_info.movie_id = title.id AND cast_info.person_id = name.id
    AND cast_info.person_role_id = char_name.id AND cast_info.role_id = role_type.id
    AND movie_keyword.movie_id = title.id AND movie_keyword.keyword_id = keyword.id
    AND title.kind_id = 4 AND title.season_nr = 12 AND name.gender = 1 AND keyword.phonetic_code < 1500
    AND cast_info.role_id <= 1;
-- d20: 7 joins, info and info_idx side by side with the company star, anchor = id range
SELECT COUNT(*) FROM title, kind_type, movie_info, info_type, movie_info_idx, movie_companies, company_name, company_type
  WHERE title.kind_id = kind_type.id AND movie_info.movie_id = title.id AND movie_info.info_type_id = info_type.id
    AND movie_info_idx.movie_id = title.id
    AND movie_companies.movie_id = title.id AND movie_companies.company_id = company_name.id
    AND movie_companies.company_type_id = company_type.id
    AND title.id >= 1600 AND title.id < 1620
    AND movie_info.info_type_id = 25 AND movie_info_idx.info_type_id = 1;
-- d21: 6 joins, supporting roles only (high role ids exist only on popular titles)
SELECT COUNT(*) FROM title, cast_info, name, char_name, role_type, movie_companies, company_type
  WHERE cast_info.movie_id = title.id AND cast_info.person_id = name.id
    AND cast_info.person_role_id = char_name.id AND cast_info.role_id = role_type.id
    AND movie_companies.movie_id = title.id AND movie_companies.company_type_id = company_type.id
    AND title.phonetic_code < 10 AND cast_info.role_id >= 6 AND movie_companies.company_type_id = 0;
-- d22: 7 joins, a quarter of the info types on the fact side under a phonetic anchor
SELECT COUNT(*) FROM title, kind_type, movie_info, info_type, cast_info, name, char_name, role_type
  WHERE title.kind_id = kind_type.id AND movie_info.movie_id = title.id AND movie_info.info_type_id = info_type.id
    AND cast_info.movie_id = title.id AND cast_info.person_id = name.id AND cast_info.person_role_id = char_name.id
    AND cast_info.role_id = role_type.id
    AND title.phonetic_code >= 250 AND title.phonetic_code < 262 AND movie_info.info_type_id < 10
    AND cast_info.role_id <= 1;
-- d23: 8 joins, big-studio skew (low company ids) under an id-range anchor
SELECT COUNT(*) FROM title, movie_companies, company_name, company_type, cast_info, name, role_type, movie_info_idx, info_type
  WHERE movie_companies.movie_id = title.id AND movie_companies.company_id = company_name.id
    AND movie_companies.company_type_id = company_type.id
    AND cast_info.movie_id = title.id AND cast_info.person_id = name.id AND cast_info.role_id = role_type.id
    AND movie_info_idx.movie_id = title.id AND movie_info_idx.info_type_id = info_type.id
    AND title.id >= 2300 AND title.id < 2320 AND movie_companies.company_id < 30
    AND cast_info.role_id = 0 AND movie_info_idx.info_type_id = 13;
-- d24: 6 joins, anchor = one year of kind 3, three filtered fact tables
SELECT COUNT(*) FROM title, kind_type, cast_info, movie_info, info_type, movie_companies, company_name
  WHERE title.kind_id = kind_type.id AND cast_info.movie_id = title.id
    AND movie_info.movie_id = title.id AND movie_info.info_type_id = info_type.id
    AND movie_companies.movie_id = title.id AND movie_companies.company_id = company_name.id
    AND title.production_year = 1985 AND title.kind_id = 3
    AND cast_info.role_id = 0 AND movie_info.info_type_id = 22 AND movie_companies.company_type_id = 0;
