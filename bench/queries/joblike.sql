-- The 22-query JOB-like suite (same SQL as internal/joblike at the commit that
-- defined the benchmark). job_exec runs all of it; serve_short runs families
-- 1-4. Format: "-- name: property" opens a query, ";" closes it.

-- 1a: single join, open year range on the dimension side
SELECT COUNT(*) FROM title, movie_keyword WHERE movie_keyword.movie_id = title.id AND title.production_year > 1995;
-- 1b: single join into the largest fact table, equality on the fact side
SELECT COUNT(*) FROM title, cast_info WHERE cast_info.movie_id = title.id AND cast_info.role_id = 0;
-- 1c: single join, equality on a skewed dimension column
SELECT COUNT(*) FROM title, movie_companies WHERE movie_companies.movie_id = title.id AND title.kind_id = 1;
-- 1d: single join, 1-in-40 equality on the fact side
SELECT COUNT(*) FROM title, movie_info WHERE movie_info.movie_id = title.id AND movie_info.info_type_id = 7;
-- 2a: kind<->keyword correlation, predicates on both sides
SELECT COUNT(*) FROM title, movie_keyword WHERE movie_keyword.movie_id = title.id AND title.kind_id = 0 AND movie_keyword.keyword_id < 40;
-- 2b: year<->info correlation, contradictory ranges (near-empty result)
SELECT COUNT(*) FROM title, movie_info WHERE movie_info.movie_id = title.id AND title.production_year < 1960 AND movie_info.info > 2000;
-- 2c: year<->info correlation on the small info table
SELECT COUNT(*) FROM title, movie_info_idx WHERE movie_info_idx.movie_id = title.id AND title.production_year >= 1990 AND movie_info_idx.info >= 1500;
-- 2d: IN list plus a correlated second predicate on the same table
SELECT COUNT(*) FROM title, cast_info WHERE cast_info.movie_id = title.id AND title.kind_id IN (4, 5, 6) AND title.season_nr > 10;
-- 2e: two joins, kind<->keyword cluster correlation through a dimension
SELECT COUNT(*) FROM title, movie_keyword, keyword WHERE movie_keyword.movie_id = title.id AND movie_keyword.keyword_id = keyword.id AND title.kind_id = 2 AND keyword.phonetic_code < 500;
-- 3a: popularity skew, recent titles fan out into cast_info
SELECT COUNT(*) FROM title, cast_info WHERE cast_info.movie_id = title.id AND title.production_year > 2000;
-- 3b: two skewed fan-outs multiplied on the same titles
SELECT COUNT(*) FROM title, cast_info, movie_keyword WHERE cast_info.movie_id = title.id AND movie_keyword.movie_id = title.id AND title.production_year >= 1998;
-- 3c: skewed company choice behind a dimension filter
SELECT COUNT(*) FROM title, movie_companies, company_name WHERE movie_companies.movie_id = title.id AND movie_companies.company_id = company_name.id AND company_name.country_code = 0 AND title.production_year > 1990;
-- 3d: prolific-actor skew, filters on fact and dimension
SELECT COUNT(*) FROM title, cast_info, name WHERE cast_info.movie_id = title.id AND cast_info.person_id = name.id AND name.gender = 1 AND cast_info.role_id <= 2;
-- 4a: fact-to-fact FK-FK join without the hub table
SELECT COUNT(*) FROM movie_keyword, movie_companies WHERE movie_keyword.movie_id = movie_companies.movie_id AND movie_keyword.keyword_id < 25;
-- 4b: fact-to-fact join, equality on both sides
SELECT COUNT(*) FROM movie_info, movie_info_idx WHERE movie_info.movie_id = movie_info_idx.movie_id AND movie_info.info_type_id = 3 AND movie_info_idx.info_type_id = 5;
-- 4c: fact-to-fact join through the two largest fact tables
SELECT COUNT(*) FROM cast_info, movie_keyword WHERE cast_info.movie_id = movie_keyword.movie_id AND cast_info.role_id = 1 AND movie_keyword.keyword_id < 15;
-- 5a: 4-join double chain (keyword side and company side)
SELECT COUNT(*) FROM title, movie_keyword, keyword, movie_companies, company_name
  WHERE movie_keyword.movie_id = title.id AND movie_keyword.keyword_id = keyword.id
    AND movie_companies.movie_id = title.id AND movie_companies.company_id = company_name.id
    AND title.production_year > 1985 AND company_name.country_code IN (0, 1);
-- 5b: 4-join star around cast_info
SELECT COUNT(*) FROM title, cast_info, name, char_name, role_type
  WHERE cast_info.movie_id = title.id AND cast_info.person_id = name.id
    AND cast_info.person_role_id = char_name.id AND cast_info.role_id = role_type.id
    AND title.kind_id = 0 AND name.gender = 0;
-- 5c: 5-join mix of two fact tables and three dimensions
SELECT COUNT(*) FROM title, movie_info, info_type, movie_keyword, keyword, kind_type
  WHERE movie_info.movie_id = title.id AND movie_info.info_type_id = info_type.id
    AND movie_keyword.movie_id = title.id AND movie_keyword.keyword_id = keyword.id
    AND title.kind_id = kind_type.id
    AND title.production_year >= 1970 AND movie_info.info < 900;
-- 5d: 4 fact tables on recent (popular) titles, the suite's heaviest join
SELECT COUNT(*) FROM title, cast_info, movie_companies, movie_info, movie_keyword
  WHERE cast_info.movie_id = title.id AND movie_companies.movie_id = title.id
    AND movie_info.movie_id = title.id AND movie_keyword.movie_id = title.id
    AND title.production_year > 2005 AND cast_info.role_id = 0;
-- 5e: 6-join triple chain with a predicate on every chain end
SELECT COUNT(*) FROM title, cast_info, name, movie_keyword, keyword, movie_companies, company_name
  WHERE cast_info.movie_id = title.id AND cast_info.person_id = name.id
    AND movie_keyword.movie_id = title.id AND movie_keyword.keyword_id = keyword.id
    AND movie_companies.movie_id = title.id AND movie_companies.company_id = company_name.id
    AND title.kind_id = 0 AND name.gender = 1 AND company_name.country_code = 0
    AND title.production_year >= 1995;
-- 5f: 7-join, three fact tables and four dimensions
SELECT COUNT(*) FROM title, cast_info, name, char_name, movie_info, info_type, movie_keyword, keyword
  WHERE cast_info.movie_id = title.id AND cast_info.person_id = name.id
    AND cast_info.person_role_id = char_name.id
    AND movie_info.movie_id = title.id AND movie_info.info_type_id = info_type.id
    AND movie_keyword.movie_id = title.id AND movie_keyword.keyword_id = keyword.id
    AND title.production_year > 1990 AND cast_info.role_id <= 1 AND keyword.phonetic_code < 300;
