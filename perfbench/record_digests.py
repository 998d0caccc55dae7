"""Record the train workload's output digests for every input set of its
pool, with the treelab sources of this checkout.  Run it only when the
benchmark is defined or deliberately redefined; the train check compares
every later run against the file it writes.

    python3 perfbench/record_digests.py
"""

import json
import sys

from worker import SRC
from workloads import TRAIN_DIGESTS, TRAIN_POOL, WORKLOADS


def main() -> int:
    sys.path.insert(0, SRC)
    train = WORKLOADS["train"]
    digests = {}
    for index in range(TRAIN_POOL):
        seed = train.pool_seed(index)
        digests[str(seed)] = train.run(train.setup(seed)).digest
        print(f"{index + 1}/{TRAIN_POOL} seed {seed}", file=sys.stderr, flush=True)
    with open(TRAIN_DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
