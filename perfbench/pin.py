"""Pin the answers of the default seed.

    python3 perfbench/pin.py

Runs every request of every cycle of every workload once at the default
seed, checks each answer with verify.py, and rewrites pinned.json only
if every check passes.  Timed runs at the default seed then compare each
answer's feasibility and objective with the pinned ones.
"""

import json
import sys

import run
import workloads


def main() -> int:
    pins = {}
    for name in workloads.WORKLOADS:
        wl, files, _setup_s, _gauge = run.setup(name, run.DEFAULT_SEED)
        execute = run.Cli(files) if wl.cli else run.Library(wl)
        results, _wall = run.timed_loop([r for cycle in wl.cycles for r in cycle], execute)
        failed, problems = run.check(results, wl, None)
        if failed:
            print(f"{name}: {len(failed)} failed, not pinning", *problems, sep="\n", file=sys.stderr)
            return 1
        pins[name] = {req.key: run.pin_of(answer) for req, _lat, answer, _err in results}
        print(f"{name}: {len(pins[name])} answers pinned")
    blocks = [
        json.dumps(name) + ": {\n" + ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(answers.items())
        ) + "\n}"
        for name, answers in sorted(pins.items())
    ]
    (run.BENCH / "pinned.json").write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
