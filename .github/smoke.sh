#!/bin/sh
# Runs every orbitdist subcommand once through the installed console script,
# in the current directory; every console contract is a Tier-1 test, so this
# only checks that the entry point runs.
set -eu
printf '0,1,0\n0,0,2\n' > a.csv
printf '1,2,0.5\n0,1,3\n' > b.csv
orbitdist dist --group E a.csv b.csv
orbitdist embed --group E a.csv
printf '0,1,3,7\n' > row.csv
orbitdist embed --group O --reduced row.csv
orbitdist db-build --group E --out db.jsonl a.csv b.csv
orbitdist db-query db.jsonl a.csv -k 1 --verify
printf '{"n_pairs": 50}\n' > distortion.json
orbitdist experiment distortion --config distortion.json --out distortion
printf '{"db_size": 20, "n_draws": 2}\n' > classify.json
orbitdist experiment classify --config classify.json --out classify
printf '{"group": "U", "n": 2, "l": 5, "n_pairs": 20}\n' > survey.json
orbitdist experiment lower-constant --config survey.json --out survey
