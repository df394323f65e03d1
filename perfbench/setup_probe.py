"""Set-up of one workload in a fresh interpreter: import varsplit, build its models.

Usage: python3 perfbench/setup_probe.py <setup.json>, with varsplit on
PYTHONPATH. The JSON lists {"csv": path} entries, read with
load_losses_csv, and {"spec": {...}} entries, built with build_model.
Prints one JSON line with the import time and the build time in seconds.
"""

import json
import sys
import time


def main(path: str) -> None:
    with open(path) as fh:
        models = json.load(fh)
    t0 = time.perf_counter()
    import varsplit

    t1 = time.perf_counter()
    built = [
        varsplit.load_losses_csv(item["csv"]) if "csv" in item
        else varsplit.build_model(item["spec"])
        for item in models
    ]
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "models": len(built)}))


if __name__ == "__main__":
    main(sys.argv[1])
