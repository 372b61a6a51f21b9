-- The 16-query scan mix ingest_scan runs after every append+refresh cycle on
-- db_wide (Titles=60000; movie_id / id columns are clustered, appended rows
-- continue the clustering). Format: "-- name: property" opens a query.

-- p1: prunable, 1% clustered range on the largest table
SELECT COUNT(*) FROM cast_info WHERE cast_info.movie_id >= 12000 AND cast_info.movie_id < 12600;
-- p2: prunable, head-of-table range
SELECT COUNT(*) FROM cast_info WHERE cast_info.movie_id < 300;
-- p3: prunable, mid-table range plus a residual predicate on a second column
SELECT COUNT(*) FROM cast_info WHERE cast_info.movie_id >= 36000 AND cast_info.movie_id < 38400 AND cast_info.role_id = 0;
-- p4: prunable, range on the primary key of the hub table
SELECT COUNT(*) FROM title WHERE title.id >= 24000 AND title.id < 24300;
-- p5: prunable, range plus equality on a medium fact table
SELECT COUNT(*) FROM movie_info WHERE movie_info.movie_id >= 42000 AND movie_info.movie_id < 43200 AND movie_info.info_type_id = 3;
-- p6: prunable, tail range that covers every appended row
SELECT COUNT(*) FROM cast_info WHERE cast_info.movie_id >= 59400;
-- f1: full-column filter, low-cardinality column (dictionary-encodable)
SELECT COUNT(*) FROM cast_info WHERE cast_info.role_id <= 2;
-- f2: full-column filter, high-cardinality column (no zone map can prune)
SELECT COUNT(*) FROM cast_info WHERE cast_info.person_id < 6000;
-- f3: full-column filter on a value correlated with nothing clustered
SELECT COUNT(*) FROM movie_info WHERE movie_info.info > 2000;
-- f4: full-column filter on the hub table
SELECT COUNT(*) FROM title WHERE title.production_year > 1980;
-- f5: full-column filter that keeps almost every row
SELECT COUNT(*) FROM cast_info WHERE cast_info.person_role_id >= 100;
-- j1: range join, prunable range on the dimension side only
SELECT COUNT(*) FROM title, cast_info WHERE cast_info.movie_id = title.id AND title.id >= 6000 AND title.id < 7200;
-- j2: range join with an unprunable filter on the fact side
SELECT COUNT(*) FROM title, movie_keyword WHERE movie_keyword.movie_id = title.id AND title.id < 1800 AND movie_keyword.keyword_id < 3000;
-- j3: range join, the same range stated on both sides
SELECT COUNT(*) FROM title, movie_info WHERE movie_info.movie_id = title.id AND title.id >= 30000 AND title.id < 30600 AND movie_info.movie_id >= 30000 AND movie_info.movie_id < 30600;
-- j4: range join from the appended table into an unclustered dimension
SELECT COUNT(*) FROM cast_info, name WHERE cast_info.person_id = name.id AND cast_info.movie_id >= 18000 AND cast_info.movie_id < 18600 AND name.gender = 1;
-- j5: range join, equality on the dimension and a range on the fact
SELECT COUNT(*) FROM title, movie_companies WHERE movie_companies.movie_id = title.id AND title.production_year = 1990 AND movie_companies.movie_id >= 36000 AND movie_companies.movie_id < 39000;
