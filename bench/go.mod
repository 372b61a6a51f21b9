module github.com/lpce-db/lpce/bench

go 1.22

require github.com/lpce-db/lpce v0.0.0

replace github.com/lpce-db/lpce => ../
