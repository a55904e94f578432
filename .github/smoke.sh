#!/bin/sh
# Runs every orbitdist subcommand through the installed console script, in
# the current directory, reaching the complex-matrix (JSON) reader and a
# reduced database too; every console contract is a Tier-1 test, so this
# only checks that the entry point runs.
set -eu
# as strict as Tier-1: any warning is an error, a file left open (dev mode)
# or opened without an encoding (every CLI file is UTF-8)
export PYTHONDEVMODE=1 PYTHONWARNDEFAULTENCODING=1 PYTHONWARNINGS=error
printf '0,1,0\n0,0,2\n' > a.csv
printf '1,2,0.5\n0,1,3\n' > b.csv
orbitdist dist --group E a.csv b.csv
printf '{"re": [[1, 0], [0, 2]], "im": [[0, 1], [0.5, 0]]}\n' > u.json
printf '{"re": [[0, 1], [2, 0]], "im": [[1, 0], [0, -0.5]]}\n' > v.json
orbitdist dist --group U u.json v.json
orbitdist embed --group E a.csv
printf '0,1,3,7\n' > row.csv
orbitdist embed --group O --reduced row.csv
orbitdist db-build --group E --out db.jsonl a.csv b.csv
orbitdist db-query db.jsonl a.csv -k 1 --verify
printf '1,2,0,3\n' > r2.csv
printf '0,1,1,5\n' > r3.csv
orbitdist db-build --group O --reduced --out reduced.jsonl row.csv r2.csv r3.csv
orbitdist db-query reduced.jsonl row.csv -k 2 --verify
printf '{"n_pairs": 50}\n' > distortion.json
orbitdist experiment distortion --config distortion.json --out distortion
printf '{"db_size": 20, "n_draws": 2}\n' > classify.json
orbitdist experiment classify --config classify.json --out classify
printf '{"group": "U", "n": 2, "l": 5, "n_pairs": 20}\n' > survey.json
orbitdist experiment lower-constant --config survey.json --out survey
