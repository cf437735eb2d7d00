"""Record the output digests of the current code for a range of seeds.

    python3 perfbench/record_digests.py --seeds 0-31

Runs every workload in this process (``--jobs 1``) on each seed's inputs,
checks the outputs against the naive oracle, and writes digests.json.
Record only on a commit whose outputs are the reference: the benchmark
counts every run whose outputs differ from the stored digest as failed.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range such as 0-31")
    first, last = (int(v) for v in parser.parse_args().seeds.split("-"))
    sys.path.insert(0, str(run.SRC))
    table = json.loads(run.DIGESTS.read_text(encoding="utf-8")) if run.DIGESTS.is_file() else {}
    for workload in run.WORKLOADS:
        work = run.WORK / workload
        for seed in range(first, last + 1):
            run.inputs.write_inputs(workload, seed, work)
            ok, _, _, digest = run.in_process(workload, work)
            problems = run.verify_outputs(workload, work, seed)
            if not ok or problems:
                print(f"{workload} seed {seed}: not recorded: {problems or 'non-zero exit'}")
                return 1
            table.setdefault(workload, {})[str(seed)] = digest
            print(f"{workload} seed {seed}: {digest}", flush=True)
            run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
