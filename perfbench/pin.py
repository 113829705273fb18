#!/usr/bin/env python3
"""Pin the counter digests that ``run.py`` checks every repetition against.

Run from the root of a checkout whose counters are known to be right
(the digests are the paper counters of each workload at each seed)::

    python3 perfbench/pin.py --workloads paper-queries oid-navigate ticket-serving --seeds 0-99

Existing pins are kept; a seed whose digest differs from its pin is
reported and left unchanged, so re-running this cannot silently move a
pinned counter.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-63")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    sys.path.insert(0, str(run.SRC))
    sys.path.insert(0, str(run.HERE))
    from workloads import WORKLOADS

    path = run.HERE / "digests.json"
    pins = json.loads(path.read_text()) if path.exists() else {}
    status = 0
    for name in args.workloads:
        table = pins.setdefault(name, {})
        for seed in seeds:
            rep = run.run_rep(WORKLOADS[name], seed, 0)
            if rep.error is not None:
                print(f"{name} seed {seed}: raised\n{rep.error}", file=sys.stderr)
                return 1
            pinned = table.get(str(seed))
            if pinned is not None and pinned != rep.digest:
                print(
                    f"{name} seed {seed}: digest {rep.digest} differs from pin {pinned}",
                    file=sys.stderr,
                )
                status = 1
                continue
            table[str(seed)] = rep.digest
            print(f"{name} seed {seed}: {rep.digest}", flush=True)
            path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
