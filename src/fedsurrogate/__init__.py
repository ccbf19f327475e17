"""Deterministic federated-learning simulator with a layer-selective
backdoor defense, a backdoor attack suite, and an experiment harness.

Submodules:
    params      flat parameter vectors with named-layer schemas, cosine geometry
    data        synthetic datasets, IDX ingestion, Dirichlet partitioning, triggers
    model       small MLP with manual forward/backward and local SGD
    attacks     CBA / DBA / Neurotoxin and the adaptive CSA / CLA attacks
    clustering  HDBSCAN on precomputed distance matrices
    defense     the three-stage defense pipeline and the FedAvg control
    metrics     MTA / ASR / TPR / FPR / MCC
    harness     experiment orchestration, sweeps, ablations, CSV/JSON reports
"""

__version__ = "0.1.0"
