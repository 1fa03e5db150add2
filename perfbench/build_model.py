"""Train and save the model that ``predict-cold`` and ``serve-mix`` load.

Usage: ``python build_model.py OUT.npz``.  The model has the default
(Table 2) Circuitformer and the default path sampler; it is trained
briefly (two Circuitformer epochs) on all 41 registry designs labelled
by ``Synthesizer(effort="low")``, so that every design is in its
training distribution and predicts positive timing, area and power.
The predict workloads time inference, so accuracy beyond that does not
matter, only that the model is fixed: the same program builds the same
model.
"""

import os
import sys

from repro.core import SNS, TrainingConfig
from repro.core.persistence import save_sns
from repro.datagen import build_design_dataset
from repro.designs import standard_designs
from repro.synth import Synthesizer


def main() -> int:
    out = sys.argv[1]
    synth = Synthesizer(effort="low")
    records = build_design_dataset(standard_designs(), synth)
    sns = SNS(training_config=TrainingConfig(circuitformer_epochs=2,
                                             aggregator_epochs=100), seed=0)
    sns.fit(records, synthesizer=synth)
    tmp = f"{out}.{os.getpid()}.tmp.npz"
    save_sns(sns, tmp)
    os.replace(tmp, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
