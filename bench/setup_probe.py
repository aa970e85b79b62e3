"""Set-up time of one workload, in a fresh process: import astra, then parse,
orient, plan folds, split and standardize the way `astra train` does.

    PYTHONPATH=src python bench/setup_probe.py DATASET FOLDS SEED

Prints the seconds taken.
"""

import sys
import time

start = time.perf_counter()

from astra.data import (  # noqa: E402  (the import is part of what is timed)
    fold_split, orient_labels, parse_sparse, standardize, stratified_folds)


def main(path: str, folds: int, seed: int) -> float:
    ds = orient_labels(parse_sparse(path))
    plan = stratified_folds(ds, folds, seed=[seed, 0, 202])
    train, val, test = fold_split(ds, plan, test_fold=0, val_fold=1)
    standardize(train, [val, test])
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))))
