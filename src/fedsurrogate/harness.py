"""Experiment orchestration: the experiment config and its dotted-path
schema, one full federated training loop per config, and CSV/JSON
reports. Sweeps and ablations are the CLI's lists of configs.

A run is fully described by an :class:`ExperimentConfig` and is
deterministic under its seed: the master seed fans out to per-purpose and
per-(round, client) sub-seeds through a counter-based derivation, so
adding clients or rounds never perturbs existing random streams.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import numbers
import threading
import time
import typing
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .attacks import (
    AttackConfig,
    cba_train,
    cla_train,
    csa_train,
    dba_train,
    neurotoxin_train,
)
from .data import (
    BACKGROUND,
    PATCH_SIDE,
    Dataset,
    TriggerSpec,
    class_bits,
    corner_patch_trigger,
    dirichlet_partition,
    generate_synthetic,
    load_idx,
    triggered_test_set,
)
from .defense import (
    DONOR_METRICS,
    VARIANTS,
    AggregationWeights,
    FilterConfig,
    LcaConfig,
    ScoreMemory,
    fedavg_round,
    fedsurrogate_round,
)
from .metrics import DetectionTally, asr, mcc, rates, tally_round
from . import params
from .model import MlpArchitecture, TrainConfig, init_model, local_train, local_train_stack
from .model import evaluate as main_task_accuracy  # bound apart, so a wrapper can trace MTA
from .params import ClientUpdate, ParameterVector, Role, check_key, compute_update
from .workers import RoundTrainers


def _attack_trainers(cid: int = 0, prev_delta: np.ndarray | None = None) -> dict[str, tuple]:
    """The roster: attack kind -> (its trainer as this module holds it now,
    the arguments client ``cid`` passes it after the attack config)."""
    return {
        "cba": (cba_train,),
        # attackers are clients 0..n_mal-1, so a client's id is its attacker index
        "dba": (dba_train, cid),
        "neurotoxin": (neurotoxin_train, prev_delta),
        "csa": (csa_train,),
        "cla": (cla_train,),
    }


# while any trainer differs from these (is hooked), a round trains in one
# process and its benign clients one by one; see workers
_OWN_TRAINERS = _attack_trainers()
ATTACKS = ("none", *_OWN_TRAINERS)
DEFENSES = ("fedsurrogate", "fedavg")


class HonestMajorityWarning(UserWarning):
    """Raised when the configured malicious fraction reaches one half."""


@dataclass(frozen=True)
class DatasetSpec:
    """Synthetic generator parameters, or a pair of IDX files.

    When ``images_path`` is set the IDX pair is loaded instead of the
    synthetic generator and the synthetic fields are ignored; the other
    three paths are accepted only beside it.
    """

    num_classes: int = 4
    dim: int = 64
    per_class: int = 300
    test_per_class: int = 50
    spread: float = 0.05
    background: float = BACKGROUND
    images_path: str | None = None
    labels_path: str | None = None
    test_images_path: str | None = None
    test_labels_path: str | None = None

    def __post_init__(self):
        if self.images_path is None:
            for name in ("labels_path", "test_images_path", "test_labels_path"):
                if getattr(self, name) is not None:
                    raise ValueError(f"config key 'dataset.{name}' needs "
                                     "'dataset.images_path' set")
            for key, least in (("num_classes", 2), ("dim", 1), ("per_class", 1),
                               ("test_per_class", 1)):
                check_key(getattr(self, key) >= least, f"dataset.{key}", f">= {least}",
                          getattr(self, key))
            check_key(self.spread >= 0, "dataset.spread", ">= 0", self.spread)
            check_key(0.0 <= self.background <= 1.0, "dataset.background", "in [0, 1]",
                      self.background)
            try:  # the run's patch trigger needs a square grid of side >= 3
                corner_patch_trigger(self.dim)
            except ValueError as exc:
                raise ValueError(f"config key 'dataset.dim': {exc}") from None
            try:
                class_bits(self.num_classes, self.dim)
            except ValueError as exc:
                raise ValueError(f"config key 'dataset.num_classes': {exc}") from None
        elif None in (self.labels_path, self.test_images_path, self.test_labels_path):
            raise ValueError("an IDX dataset needs all four file paths")


@dataclass(frozen=True)
class ExperimentConfig:
    n_clients: int = 20
    mcr: float = 0.2
    alpha: float = 0.5
    rounds: int = 30
    benign_epochs: int = 2
    lr: float = 0.05
    batch: int = 32
    attack_kind: str = "cba"
    attack: AttackConfig = field(default_factory=AttackConfig)
    defense: str = "fedsurrogate"
    lca: LcaConfig = field(default_factory=LcaConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    weights: AggregationWeights = field(default_factory=AggregationWeights)
    donor_metric: str = "cosine"
    variant: str = "full"
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    hidden_dims: tuple[int, ...] = (32, 16)
    warmup_epochs: int = 8
    warmup_per_class: int = 50
    seed: int = 7

    def __post_init__(self):
        for key, least in (("n_clients", 2), ("rounds", 1), ("benign_epochs", 1),
                           ("batch", 1), ("warmup_epochs", 0), ("warmup_per_class", 1),
                           ("seed", 0)):
            check_key(getattr(self, key) >= least, key, f">= {least}", getattr(self, key))
        check_key(0.0 <= self.mcr <= 1.0, "mcr", "in [0, 1]", self.mcr)
        check_key(self.alpha > 0, "alpha", "> 0", self.alpha)
        check_key(self.lr > 0, "lr", "> 0", self.lr)
        for key, accepted in (("attack_kind", ATTACKS), ("defense", DEFENSES),
                              ("donor_metric", DONOR_METRICS), ("variant", VARIANTS)):
            if getattr(self, key) not in accepted:
                raise ValueError(f"config key {key!r} is {getattr(self, key)!r}, "
                                 f"not one of {', '.join(accepted)}")
        if not self.hidden_dims or min(self.hidden_dims) < 1:
            raise ValueError("config key 'hidden_dims' must list at least one "
                             f"positive width, not {self.hidden_dims}")
        n_layers = len(self.hidden_dims) + 1
        if set(self.filter.rescue_layers) - {f"fc{k + 1}" for k in range(n_layers)}:
            raise ValueError(
                f"filter.rescue_layers {self.filter.rescue_layers} must name layers "
                f"among fc1..fc{n_layers}, those of hidden_dims {self.hidden_dims}"
            )
        if self.attack.cla_top_k > n_layers:  # cla_compose would clamp it to n_layers
            raise ValueError(
                f"config key 'attack.cla_top_k' is {self.attack.cla_top_k}, above the "
                f"{n_layers} layers of hidden_dims {self.hidden_dims}"
            )

    @property
    def pdr(self) -> float:
        """Poisoned-data rate of each attacker's shard."""
        return self.attack.poison_rate

    @property
    def n_malicious(self) -> int:
        return params.floor_share(self.mcr, self.n_clients) if self.attack_kind != "none" else 0


def config_fields(cls: type = ExperimentConfig, prefix: str = "") -> dict[str, object]:
    """Dotted path -> type of every settable leaf of the config, recursing
    into the nested config dataclasses (``mcr``, ``filter.zeta``,
    ``dataset.per_class``). Flags, YAML keys and sweep names all derive
    from these paths."""
    hints = typing.get_type_hints(cls)
    leaves: dict[str, object] = {}
    for f in dataclasses.fields(cls):
        typ = hints[f.name]
        if dataclasses.is_dataclass(typ):
            leaves.update(config_fields(typ, f"{prefix}{f.name}."))
        else:
            leaves[prefix + f.name] = typ
    return leaves


def _finite(value: numbers.Real) -> bool:
    """Whether a real number is a finite float (an int too large for
    one is not)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _coerce(path: str, typ, value):
    """Strictly convert one value for the config leaf ``path``: an int
    takes no bool or fraction, a float no bool, NaN or infinity (a NaN
    threshold turns its comparison off), ``str | None`` takes null, and
    a tuple takes a list of its element type."""
    if typing.get_origin(typ) is tuple and isinstance(value, (list, tuple)):
        return tuple(_coerce(path, typing.get_args(typ)[0], v) for v in value)
    if not isinstance(value, bool):
        if typ is int and isinstance(value, numbers.Integral):
            return int(value)
        if typ is float and isinstance(value, numbers.Real) and _finite(value):
            return float(value)
        if typ in (str, str | None) and isinstance(value, str):
            return value
    if typ == (str | None) and value is None:
        return None
    name = "finite float" if typ is float else typ.__name__ if isinstance(typ, type) else str(typ)
    raise ValueError(f"config key {path!r} takes {name}, not {value!r}")


def set_fields(cfg: ExperimentConfig, values: Mapping[str, object]) -> ExperimentConfig:
    """``cfg`` with each dotted leaf path in ``values`` set to its strictly
    coerced value, each section replaced (and validated) once. An unknown
    or misplaced key is rejected by name."""
    leaves = config_fields()
    unknown = sorted(set(values) - set(leaves))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    sections: dict[str, dict] = {}
    for path, value in values.items():
        section, _, name = path.rpartition(".")
        sections.setdefault(section, {})[name] = _coerce(path, leaves[path], value)
    top = sections.pop("", {})
    for section, kwargs in sections.items():
        top[section] = dataclasses.replace(getattr(cfg, section), **kwargs)
    return dataclasses.replace(cfg, **top)


@dataclass(frozen=True)
class RoundRecord:
    round: int
    mta: float
    asr: float
    n_flagged: int
    n_rescued: int
    degenerate: bool
    critical_layers: tuple[str, ...]


@dataclass(frozen=True)
class RunReport:
    config: ExperimentConfig
    records: tuple[RoundRecord, ...]
    tpr: float
    fpr: float
    mcc: float
    wall_clock: float

    def __post_init__(self):
        if len(self.records) != self.config.rounds:
            raise ValueError("rounds recorded must equal configured rounds")

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def final_mta(self) -> float:
        return self.records[-1].mta

    @property
    def final_asr(self) -> float:
        return self.records[-1].asr


def _derive_seed(master: int, *tags: int) -> int:
    """Counter-based sub-seed derivation from the master seed."""
    ss = np.random.SeedSequence(entropy=[int(master), *[int(t) % (2**32) for t in tags]])
    return int(ss.generate_state(1)[0])


_TRAIN_TAG, _TEST_TAG, _WARM_TAG, _PART_TAG, _INIT_TAG, _CLIENT_TAG = range(0xA1, 0xA7)


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable hash of the fully resolved configuration."""
    blob = json.dumps(dataclasses.asdict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _load_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset, Dataset]:
    ds = cfg.dataset
    if ds.images_path is not None:
        train = load_idx(ds.images_path, ds.labels_path)
        test = load_idx(ds.test_images_path, ds.test_labels_path)
        if not len(test):
            raise ValueError("config key 'dataset.test_images_path': the file holds no images")
        if test.dim != train.dim:
            raise ValueError(f"config key 'dataset.test_images_path': images of {test.dim} "
                             f"pixels, the training images have {train.dim}")
        if test.labels.max() >= train.num_classes:
            raise ValueError(f"config key 'dataset.test_labels_path': label "
                             f"{test.labels.max()} is outside the training classes "
                             f"0..{train.num_classes - 1}")
        n_warm = min(len(train), train.num_classes * cfg.warmup_per_class)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=[cfg.seed, _WARM_TAG])
        )
        warm = train.subset(rng.permutation(len(train))[:n_warm])
        return train, test, warm
    train = generate_synthetic(
        ds.num_classes, ds.dim, ds.per_class, ds.spread,
        seed=_derive_seed(cfg.seed, _TRAIN_TAG), background=ds.background,
    )
    test = generate_synthetic(
        ds.num_classes, ds.dim, ds.test_per_class, ds.spread,
        seed=_derive_seed(cfg.seed, _TEST_TAG), background=ds.background,
    )
    warm = generate_synthetic(
        ds.num_classes, ds.dim, cfg.warmup_per_class, ds.spread,
        seed=_derive_seed(cfg.seed, _WARM_TAG), background=ds.background,
    )
    return train, test, warm


def _make_trigger(cfg: ExperimentConfig, dim: int) -> TriggerSpec:
    # one fragment per attacker, at most one per coordinate; only DBA writes one
    return corner_patch_trigger(dim, min(max(1, cfg.n_malicious), PATCH_SIDE ** 2))


def _client_config(cfg: ExperimentConfig, rnd: int, cid: int) -> TrainConfig:
    return TrainConfig(cfg.benign_epochs, cfg.lr, cfg.batch,
                       seed=_derive_seed(cfg.seed, _CLIENT_TAG, rnd, cid))


def _train_part(
    cfg: ExperimentConfig,
    arch: MlpArchitecture,
    shards: list[Dataset],
    trigger: TriggerSpec,
    stacked: bool,
    clients: list[int],
    rnd: int,
    global_model: ParameterVector,
    prev_delta: np.ndarray | None,
) -> tuple[list[int], np.ndarray, tuple[int, Exception] | None]:
    """One part's training, as ``workers.Train`` describes it. The
    attackers train one by one in id order, then the benign clients as
    one ``local_train_stack``, or one by one too unless ``stacked``. An
    exception a client raises stops the part; one the stack raises is
    charged to its lowest id."""
    ids = [c for c in clients if c < cfg.n_malicious or not stacked]
    stack = [c for c in clients if c >= cfg.n_malicious and stacked]
    rows = np.empty((len(clients), global_model.schema.total_length))
    for i, cid in enumerate(ids):
        try:
            tcfg = _client_config(cfg, rnd, cid)
            if cid < cfg.n_malicious:
                trainer, *extra = _attack_trainers(cid, prev_delta)[cfg.attack_kind]
                model = trainer(arch, global_model, shards[cid], trigger, tcfg, cfg.attack,
                                *extra)
            else:
                model = local_train(arch, global_model, shards[cid], tcfg)
            rows[i] = model.values
        except Exception as exc:
            return ids[:i], rows[:i], (cid, exc)
    try:
        order = local_train_stack(arch, global_model, [shards[c] for c in stack],
                                  [_client_config(cfg, rnd, c) for c in stack],
                                  rows[len(ids):])
    except Exception as exc:
        return ids, rows[:len(ids)], (stack[0], exc)
    return ids + [stack[i] for i in order], rows, None


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Run one full federated experiment and return its report. How a
    round's clients train over worker processes, and why the report's
    bytes do not depend on it, is told in the ``workers`` docstring."""
    start = time.perf_counter()
    n_mal = cfg.n_malicious
    if n_mal >= cfg.n_clients / 2:
        warnings.warn(
            f"{n_mal} of {cfg.n_clients} clients malicious: honest majority lost",
            HonestMajorityWarning,
            stacklevel=2,
        )
    train, test, warm = _load_datasets(cfg)
    shards = [train.subset(idx) for idx in dirichlet_partition(
        train, cfg.n_clients, cfg.alpha, seed=_derive_seed(cfg.seed, _PART_TAG))]
    dims = (train.dim, *cfg.hidden_dims, train.num_classes)
    del train  # the shards hold copies of every sample they need
    trigger = _make_trigger(cfg, dims[0])
    roles = {
        cid: (Role.MALICIOUS if cid < n_mal else Role.BENIGN)
        for cid in range(cfg.n_clients)
    }
    arch = MlpArchitecture(dims)
    global_model = init_model(arch, seed=_derive_seed(cfg.seed, _INIT_TAG))
    if cfg.warmup_epochs:
        global_model = local_train(
            arch, global_model, warm,
            TrainConfig(cfg.warmup_epochs, cfg.lr, cfg.batch,
                        seed=_derive_seed(cfg.seed, _WARM_TAG, 1)),
        )

    # while an attack trainer is hooked, benign clients train one by one
    # too, so a hook on harness.local_train sees each of them
    stacked = _attack_trainers() == _OWN_TRAINERS
    alone = threading.active_count() == 1 and stacked
    w = min(params._cpu_count(), cfg.n_clients) if alone else 1
    parts = [list(range(k, cfg.n_clients, w)) for k in range(w)]
    triggered = triggered_test_set(test, trigger) if cfg.attack_kind != "none" else None
    # looked up here, not at import, so a step replaced on this module is run
    step = {"fedavg": fedavg_round,
            "fedsurrogate": functools.partial(
                fedsurrogate_round, lca_cfg=cfg.lca, filter_cfg=cfg.filter,
                weights=cfg.weights, donor_metric=cfg.donor_metric, variant=cfg.variant),
            }[cfg.defense]
    mem = ScoreMemory()
    tally = DetectionTally()
    prev_delta: np.ndarray | None = None
    records: list[RoundRecord] = []
    train_part = functools.partial(_train_part, cfg, arch, shards, trigger, stacked)
    with RoundTrainers(train_part, parts, global_model.schema) as trainers:
        for rnd in range(cfg.rounds):
            models = trainers.round(rnd, global_model, prev_delta)
            # the round's deltas, one cache-aligned row per client, read in
            # place by the defense (defense.round_matrix) once their buffer
            # is made read-only
            deltas = params.aligned_rows(cfg.n_clients, global_model.schema.total_length)
            updates: list[ClientUpdate] = [
                compute_update(model, global_model, client_id=cid,
                               sample_count=len(shards[cid]), true_role=roles[cid],
                               out=deltas[cid])
                for cid, model in enumerate(models)
            ]
            deltas.base.flags.writeable = False
            before = global_model.values
            global_model, outcome, mem = step(updates, global_model, mem)
            tally = tally_round(tally, outcome.confirmed_malicious, roles)
            prev_delta = global_model.values - before
            records.append(
                RoundRecord(
                    round=rnd,
                    mta=main_task_accuracy(arch, global_model, test),
                    asr=asr(arch, global_model, triggered)
                    if triggered is not None else 0.0,
                    n_flagged=len(outcome.confirmed_malicious),
                    n_rescued=len(outcome.rescued),
                    degenerate=outcome.degenerate,
                    critical_layers=outcome.critical_layers,
                )
            )
            del models, updates, deltas  # freed before the next round allocates its own
    tpr, fpr = rates(tally)
    return RunReport(
        config=cfg,
        records=tuple(records),
        tpr=tpr,
        fpr=fpr,
        mcc=mcc(tally),
        wall_clock=time.perf_counter() - start,
    )


def report_to_csv(report: RunReport) -> str:
    """Render a report as CSV text: header, one row per round, then a
    summary block."""
    lines = ["round,mta,asr,n_flagged,n_rescued,degenerate,critical_layers"]
    for r in report.records:
        layers = ";".join(r.critical_layers)
        lines.append(
            f"{r.round},{r.mta:.6f},{r.asr:.6f},{r.n_flagged},{r.n_rescued},"
            f"{int(r.degenerate)},{layers}"
        )
    lines.append(
        f"summary,tpr={report.tpr:.6f},fpr={report.fpr:.6f},mcc={report.mcc:.6f},"
        f"config_hash={config_hash(report.config)},seed={report.seed}"
    )
    return "\n".join(lines) + "\n"


def report_to_json(report: RunReport) -> str:
    payload = {
        "config": dataclasses.asdict(report.config),
        "config_hash": config_hash(report.config),
        "seed": report.seed,
        "records": [dataclasses.asdict(r) for r in report.records],
        "tpr": report.tpr,
        "fpr": report.fpr,
        "mcc": report.mcc,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit_report(report: RunReport, path: str, format: str) -> None:
    """Write a report to ``path`` as CSV or JSON."""
    if format == "csv":
        text = report_to_csv(report)
    elif format == "json":
        text = report_to_json(report)
    else:
        raise ValueError(f"unknown format {format!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
