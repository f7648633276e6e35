"""Set-up as a user pays it: a fresh interpreter imports the package and
loads a workload's training and held-out sets.

    python3 perfbench/setup_probe.py DIR

prints one JSON line with the import time and the load time in seconds,
and the file the package was imported from.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    t0 = time.perf_counter()
    import supersetlabel
    t1 = time.perf_counter()
    data = Path(sys.argv[1])
    supersetlabel.load_manifest(data / "train" / "manifest.txt")
    supersetlabel.load_manifest(data / "test" / "manifest.txt")
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1,
                      "package": supersetlabel.__file__}))


if __name__ == "__main__":
    main()
