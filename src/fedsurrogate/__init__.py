"""Deterministic federated-learning simulator with a layer-selective
backdoor defense, a backdoor attack suite, and an experiment harness.

Submodules:
    params      flat parameter vectors with named-layer schemas, cosine geometry
    data        synthetic datasets, IDX ingestion, Dirichlet partitioning, triggers
    model       small MLP with manual forward/backward and local SGD
    attacks     CBA / DBA / Neurotoxin and the adaptive CSA / CLA attacks
    clustering  HDBSCAN on precomputed distance matrices, returning labels
    defense     the round steps: the three-stage pipeline and the FedAvg control
    metrics     ASR / TPR / FPR / MCC (MTA is model.evaluate)
    harness     experiment config, one experiment loop, CSV/JSON reports
    workers     a round's client training over forked worker processes
    cli         the run / sweep / ablate command line: one loop over configs
"""

__version__ = "0.1.0"
