"""Distributed sparse logistic regression scored by held-out ROC-AUC.

Each agent samples from an L1-regularized logistic posterior over its
shard of a binary classification set, here the built-in surrogate so the
demo runs anywhere; dropping the real file at data/a9a switches the
experiment to it.  The sweep varies the per-step gradient batch: smaller
batches inject more gradient noise, yet the averaged network still climbs
to the same test AUC, which is the robustness the method claims.
"""

import os

from declangevin import (build_config, logistic_auc_series, prepare,
                         run_experiment)

CHECKPOINTS = (50, 200, 1000)
DATASET = "data/a9a"


def main():
    # the surrogate's fields are refused when the file supplies the data
    real = os.path.exists(DATASET)
    data = {"dataset": DATASET} if real else \
        {"dataset": DATASET, "surrogate": "on", "n": 4000}
    print(f"{DATASET if real else 'surrogate'} data, 4 agents, checkpoint "
          "test AUC by batch size\n")
    header = " ".join(f"t={t:<6}" for t in CHECKPOINTS)
    print(f"{'batch':>6} {header}")
    for batch in (4, 32, 0):
        cfg = build_config("logistic", data, {"batch": batch})
        setup = prepare(cfg)
        trace = run_experiment(cfg, setup)
        eval_ts, aucs = logistic_auc_series(trace, setup.extras["test"])
        means = aucs.mean(axis=1)
        row = " ".join(f"{means[eval_ts == t][0]:<8.4f}"
                       for t in CHECKPOINTS)
        label = "full" if batch == 0 else str(batch)
        print(f"{label:>6} {row}")

    print("\ngradient noise from small batches slows the climb but not the "
          "ceiling")


if __name__ == "__main__":
    main()
