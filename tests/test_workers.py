"""Client training split over forked worker processes.

``harness.run_experiment`` trains each round's clients in
w = min(CPUs, n_clients) parts, client c in part c mod w, part 0 on the
calling thread and each other part in a worker process forked after the
warm-up. The part count
is forced here by patching ``params._cpu_count``. The reports must not
depend on it, a failure anywhere must end the run with an exception and
no child left behind, and a worker must never return into its caller's
stack.
"""
import dataclasses
import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from fedsurrogate import harness, params
from fedsurrogate.attacks import AttackConfig
from fedsurrogate.harness import DatasetSpec, ExperimentConfig, report_to_csv, report_to_json
from fedsurrogate.params import LayerSchema, ParameterVector
from fedsurrogate.workers import RoundTrainers

from conftest import child_env


def small(**overrides):
    """9 clients, 3 of them attackers, so three parts all train some."""
    base = dict(n_clients=9, mcr=0.34, rounds=3, warmup_epochs=1, seed=5,
                dataset=DatasetSpec(per_class=40, test_per_class=10),
                attack=AttackConfig(malicious_epochs=3, boost=2.0))
    base.update(overrides)
    return dataclasses.replace(ExperimentConfig(), **base)


@pytest.fixture
def forks(monkeypatch):
    """Counts the forks of this process; the list holds the children's
    pids."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture
def reaped(monkeypatch):
    """pid -> exit code of every child this process reaps."""
    codes = {}
    real = os.waitpid

    def waitpid(pid, options):
        got, status = real(pid, options)
        if got:
            codes[got] = os.waitstatus_to_exitcode(status)
        return got, status

    monkeypatch.setattr(os, "waitpid", waitpid)
    return codes


def parts_of(monkeypatch):
    """The parts each experiment trains in, as run_experiment dealt them."""
    seen = []

    class Recording(RoundTrainers):
        def __init__(self, train, parts, schema):
            seen.append(parts)
            super().__init__(train, parts, schema)

    monkeypatch.setattr(harness, "RoundTrainers", Recording)
    return seen


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_with_parts(monkeypatch, cfg, w):
    monkeypatch.setattr(params, "_cpu_count", lambda: w)
    return harness.run_experiment(cfg)


CONFIGS = {
    **{kind: small(attack_kind=kind) for kind in ("cba", "dba", "neurotoxin", "csa", "cla")},
    "none": small(attack_kind="none"),
    "fedavg": small(attack_kind="neurotoxin", defense="fedavg"),
    "euclidean": small(attack_kind="cba", donor_metric="euclidean"),
    **{v: small(attack_kind="dba", variant=v) for v in ("stage1", "no_rescue", "exclude")},
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_reports_do_not_depend_on_the_part_count(monkeypatch, forks, name):
    cfg = CONFIGS[name]
    dealt = parts_of(monkeypatch)
    one = run_with_parts(monkeypatch, cfg, 1)
    assert not forks
    for w in (2, 3):
        report = run_with_parts(monkeypatch, cfg, w)
        assert report_to_csv(report) == report_to_csv(one)
        assert report_to_json(report) == report_to_json(one)
        assert_no_child_left()
    assert len(forks) == 1 + 2
    assert dealt == [[list(range(9))], [[0, 2, 4, 6, 8], [1, 3, 5, 7]],
                     [[0, 3, 6], [1, 4, 7], [2, 5, 8]]]


def test_one_part_never_forks(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one part"))
    run_with_parts(monkeypatch, small(rounds=2), 1)


def test_parts_are_capped_at_one_per_client(monkeypatch, forks):
    run_with_parts(monkeypatch, small(n_clients=2, mcr=0.0, rounds=1), 4)
    assert len(forks) == 1


def test_no_fork_while_another_thread_is_alive(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with a thread alive"))
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        run_with_parts(monkeypatch, small(rounds=1), 2)
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


@pytest.mark.parametrize("kind", harness.ATTACKS)
def test_a_hooked_attack_trainer_keeps_every_client_here(monkeypatch, kind):
    """A hook on any attack trainer must see every call, so nothing is
    forked; the report's bytes stay those of an unhooked run. The hook
    receives the attack config, and DBA's client id or Neurotoxin's
    previous global delta after it."""
    cfg = small(attack_kind=kind)
    plain = run_with_parts(monkeypatch, cfg, 1)
    seen = []
    # "none" has no trainer of its own; a hook on any other still keeps the round here
    name = "cba_train" if kind == "none" else f"{kind}_train"
    real = getattr(harness, name)
    monkeypatch.setattr(harness, name,
                        lambda *a: seen.append((os.getpid(), a)) or real(*a))
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with a hooked attack trainer"))
    report = run_with_parts(monkeypatch, cfg, 3)
    assert report_to_csv(report) == report_to_csv(plain)
    assert [pid for pid, _ in seen] == [os.getpid()] * (cfg.rounds * cfg.n_malicious)
    assert all(a[5] is cfg.attack for _, a in seen)
    calls = [seen[r * cfg.n_malicious:(r + 1) * cfg.n_malicious] for r in range(cfg.rounds)]
    for rnd, round_calls in enumerate(calls):
        extra = [a[6:] for _, a in round_calls]
        if kind == "dba":
            assert extra == [(cid,) for cid in range(cfg.n_malicious)]
        elif kind == "neurotoxin":
            for (delta,) in extra:
                if rnd == 0:
                    assert delta is None
                else:
                    before, after = calls[rnd - 1][0][1][1], round_calls[0][1][1]
                    assert np.array_equal(delta, after.values - before.values)
        else:
            assert extra == [()] * cfg.n_malicious


def test_a_hooked_local_train_still_forks(monkeypatch, forks):
    """The benchmark's timed runs hook local_train to mark the end of the
    warm-up; that hook sees the warm-up only, since with no attack
    trainer hooked the benign clients train as one stack per part."""
    parent = os.getpid()
    seen = []
    real = harness.local_train
    monkeypatch.setattr(harness, "local_train",
                        lambda *a: seen.append(os.getpid()) or real(*a))
    run_with_parts(monkeypatch, small(), 2)
    if os.getpid() != parent:
        os._exit(99)
    assert len(forks) == 1
    assert seen == [parent]
    assert_no_child_left()


def test_set_up_stopped_at_the_warm_up_forks_nothing(monkeypatch):
    """The benchmark's set-up probes stop run_experiment by raising from
    the warm-up's local_train."""
    class Stop(Exception):
        pass

    def warm_up(*args, **kwargs):
        raise Stop

    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked during set-up"))
    monkeypatch.setattr(harness, "local_train", warm_up)
    with pytest.raises(Stop):
        run_with_parts(monkeypatch, small(), 2)


def test_workers_exit_on_end_of_file_and_never_return(monkeypatch, forks, reaped):
    parent = os.getpid()
    run_with_parts(monkeypatch, small(rounds=2), 3)
    if os.getpid() != parent:   # a worker that returned into this stack
        os._exit(99)
    assert len(forks) == 2 and {reaped[pid] for pid in forks} == {0}
    assert_no_child_left()


def inject(monkeypatch, fault):
    """Runs ``fault(cid, rnd)`` before each client of a part trains, in id
    order. A part whose client's fault raises an ``Exception`` reports
    that client failed, with the clients before it trained, as a part
    that stops at its first failing client does; any other exception
    leaves the part function."""
    real = harness._train_part

    def train_part(cfg, arch, shards, trigger, stacked, clients, rnd, *rest):
        for i, cid in enumerate(clients):
            try:
                fault(cid, rnd)
            except Exception as exc:
                ids, rows, _ = real(cfg, arch, shards, trigger, stacked, clients[:i], rnd, *rest)
                return ids, rows, (cid, exc)
        return real(cfg, arch, shards, trigger, stacked, clients, rnd, *rest)

    monkeypatch.setattr(harness, "_train_part", train_part)


def test_a_worker_s_base_exception_ends_it_not_its_caller(monkeypatch, forks, reaped):
    parent = os.getpid()

    def fault(cid, rnd):
        if os.getpid() != parent:
            raise SystemExit(7)

    inject(monkeypatch, fault)
    with pytest.raises(RuntimeError, match=r"ended in round 0 without replying \(exit code 1\)"):
        run_with_parts(monkeypatch, small(rounds=2), 2)
    if os.getpid() != parent:
        os._exit(99)
    assert [reaped[pid] for pid in forks] == [1]
    assert_no_child_left()


class NeedsTwo(Exception):
    """Pickles as ``NeedsTwo(message)``, which its ``__init__`` rejects."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


class TestFailures:
    @staticmethod
    def raised(monkeypatch, cfg, w):
        with pytest.raises(Exception) as info:
            run_with_parts(monkeypatch, cfg, w)
        assert_no_child_left()
        return type(info.value), str(info.value)

    def test_overflowing_training_raises_as_with_one_part(self, monkeypatch):
        cfg = small(lr=1e300, warmup_epochs=0)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            one = self.raised(monkeypatch, cfg, 1)
            assert one == (ValueError, "parameter vector contains non-finite entries")
            assert self.raised(monkeypatch, cfg, 2) == one

    @pytest.mark.parametrize("failing", [{3, 8}, {1, 8}, {8}, {0, 2, 4}])
    def test_the_lowest_failing_client_s_exception_is_raised(self, monkeypatch, failing):
        def fault(cid, rnd):
            if rnd == 1 and cid in failing:
                raise KeyError(f"client {cid}")

        inject(monkeypatch, fault)
        expected = (KeyError, repr(f"client {min(failing)}"))
        for w in (1, 2, 3):
            assert self.raised(monkeypatch, small(), w) == expected

    @pytest.mark.parametrize("w", [1, 2])
    def test_a_non_finite_stack_row_raises_as_one_by_one(self, monkeypatch, w):
        """With no attackers every client is benign; at lr=1e300 each
        model overflows, in the stack as in local_train, which trains
        them one by one while an attack trainer is hooked."""
        cfg = small(attack_kind="none", lr=1e300, warmup_epochs=0)
        calls = []
        real = harness.local_train
        monkeypatch.setattr(harness, "local_train",
                            lambda *a: calls.append(a[2]) or real(*a))
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            stacked = self.raised(monkeypatch, cfg, w)
            assert not calls
            monkeypatch.setattr(harness, "cba_train", lambda *a: pytest.fail("no attackers"))
            one_by_one = self.raised(monkeypatch, cfg, w)
        assert len(calls) == 1
        assert stacked == one_by_one == (ValueError, "parameter vector contains non-finite entries")

    def test_worker_exception_carries_its_traceback_as_a_note(self, monkeypatch):
        parent = os.getpid()

        def fault(cid, rnd):
            if os.getpid() != parent:
                raise ArithmeticError("in a worker")

        inject(monkeypatch, fault)
        with pytest.raises(ArithmeticError) as info:
            run_with_parts(monkeypatch, small(), 2)
        assert str(info.value) == "in a worker"
        (note,) = info.value.__notes__
        assert note.startswith("raised training client 1 ") and "in fault" in note
        assert_no_child_left()

    @staticmethod
    def raise_in_workers(monkeypatch, make_exception):
        parent = os.getpid()

        def fault(cid, rnd):
            if os.getpid() != parent:
                raise make_exception()

        inject(monkeypatch, fault)

    def test_an_exception_that_cannot_be_pickled(self, monkeypatch):
        class Local(Exception):   # pickled by a name no import finds
            pass

        self.raise_in_workers(monkeypatch, lambda: Local("in a worker"))
        assert self.raised(monkeypatch, small(), 2) == (RuntimeError, "Local: in a worker")

    def test_an_exception_that_cannot_be_unpickled(self, monkeypatch):
        self.raise_in_workers(monkeypatch, lambda: NeedsTwo("in a", "worker"))
        kind, message = self.raised(monkeypatch, small(), 2)
        assert kind is RuntimeError
        assert re.fullmatch(r"training client 1 failed in worker process \d+, "
                            r"and its exception could not be unpickled", message)

    def test_server_step_exception_mid_run(self, monkeypatch, forks, reaped):
        real = harness.fedsurrogate_round
        steps = []

        def step(*args, **kwargs):
            steps.append(1)
            if len(steps) == 2:
                raise OSError("server step failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "fedsurrogate_round", step)
        with pytest.raises(OSError, match="server step failed"):
            run_with_parts(monkeypatch, small(), 2)
        assert [reaped[pid] for pid in forks] == [-signal.SIGKILL]
        assert_no_child_left()

    def test_killed_worker(self, monkeypatch, forks):
        parent = os.getpid()

        def fault(cid, rnd):
            if rnd == 1 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        inject(monkeypatch, fault)
        with pytest.raises(RuntimeError, match=r"ended in round 1 without replying "
                                               r"\(exit code -9\)"):
            run_with_parts(monkeypatch, small(), 2)
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("where", ["server step", "own part"])
    def test_keyboard_interrupt(self, monkeypatch, forks, reaped, where):
        parent = os.getpid()

        def step(updates, *args, **kwargs):
            raise KeyboardInterrupt

        def fault(cid, rnd):
            if rnd == 1 and os.getpid() == parent:
                raise KeyboardInterrupt

        if where == "server step":
            monkeypatch.setattr(harness, "fedsurrogate_round", step)
        else:
            inject(monkeypatch, fault)
        with pytest.raises(KeyboardInterrupt):
            run_with_parts(monkeypatch, small(), 2)
        assert [reaped[pid] for pid in forks] == [-signal.SIGKILL]
        assert_no_child_left()


SCHEMA = LayerSchema.from_lengths([("fc1", 7), ("fc2", 3)])


def test_round_trainers_move_every_bit(forks):
    """Models travel as raw float64: subnormals, signed zeros and extreme
    magnitudes arrive bit for bit, each a read-only view of its part's
    reply, placed by the client id the reply gives its row."""
    rng = np.random.default_rng(3)
    special = np.array([0.0, -0.0, 5e-324, -2.2e-308, 1.7e308, -1.7e308, np.pi])

    def model(cid, rnd, global_model, prev_delta):
        step = special[(cid + rnd) % len(special)]
        base = global_model.values if prev_delta is None else global_model.values + prev_delta
        return base * (cid + 1) + step

    def train(clients, rnd, global_model, prev_delta):
        ids = clients[::-1]
        return ids, np.stack([model(c, rnd, global_model, prev_delta) for c in ids]), None

    parts = [[1, 4], [0, 3], [2]]
    with RoundTrainers(train, parts, SCHEMA) as trainers:
        assert len(forks) == 2
        held = []
        for rnd in range(3):
            g = ParameterVector(rng.standard_normal(SCHEMA.total_length) * 1e-300, SCHEMA)
            prev = None if rnd == 0 else rng.standard_normal(SCHEMA.total_length)
            models = trainers.round(rnd, g, prev)
            assert len(models) == 5
            for cid, m in enumerate(models):
                want = model(cid, rnd, g, prev)
                assert np.array_equal(m.values.view(np.uint64), want.view(np.uint64))
                assert not m.values.flags.writeable
            held.append((models, [m.values.copy() for m in models]))
        for models, values in held:   # later rounds wrote nothing under them
            assert all(np.array_equal(m.values, v) for m, v in zip(models, values))
    assert_no_child_left()
    assert len({id(m.values.base) for models, _ in held for m in models}) == 3 * 3


def test_worker_dead_between_rounds(monkeypatch, forks):
    """A worker that died while idle is found at the next command."""
    real = harness.fedsurrogate_round

    def step(*args, **kwargs):
        os.kill(forks[0], signal.SIGKILL)
        os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)   # dead, not yet reaped
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "fedsurrogate_round", step)
    with pytest.raises(RuntimeError, match=r"ended in round 1 without replying \(exit code -9\)"):
        run_with_parts(monkeypatch, small(), 2)
    assert_no_child_left()


# A truncated pickle stream raises EOFError when it ends before the first
# opcode and UnpicklingError when it ends inside the message.
@pytest.mark.parametrize("kept", [0, 0.5], ids=["nothing", "half"])
def test_worker_dead_mid_reply(monkeypatch, forks, kept):
    """A worker that writes part of its reply to round 1, then exits."""
    parent = os.getpid()
    real = pickle.dump
    replies = []

    def dump(obj, file, protocol=None):
        if os.getpid() != parent:
            replies.append(obj)
            if len(replies) == 2:
                blob = pickle.dumps(obj, protocol)
                file.write(blob[:int(len(blob) * kept)])
                file.flush()
                os._exit(3)
        real(obj, file, protocol)

    monkeypatch.setattr(pickle, "dump", dump)
    with pytest.raises(RuntimeError, match=r"ended in round 1 without replying \(exit code 3\)"):
        run_with_parts(monkeypatch, small(), 2)
    if os.getpid() != parent:
        os._exit(99)
    assert len(forks) == 1
    assert_no_child_left()


# Runs a clean experiment in two parts, then one whose worker is killed
# between rounds. The killed run's model (166 values) is small enough for
# its round-1 command to fit in the pipe file's buffer (the pipe's block
# size, 4096 bytes on Linux), so the command is still buffered when its
# write fails.
LEAK_CHECK = """
import dataclasses, gc, os, signal
from fedsurrogate import harness, params
from fedsurrogate.harness import DatasetSpec, ExperimentConfig

params._cpu_count = lambda: 2
cfg = dataclasses.replace(ExperimentConfig(), n_clients=6, rounds=3, warmup_epochs=1,
                          dataset=DatasetSpec(per_class=40, test_per_class=10))
print(len(harness.run_experiment(cfg).records))

pids = []
real_fork, real_step = os.fork, harness.fedsurrogate_round

def fork():
    pids.append(real_fork())
    return pids[-1]

def step(*args, **kwargs):
    os.kill(pids[-1], signal.SIGKILL)
    os.waitid(os.P_PID, pids[-1], os.WEXITED | os.WNOWAIT)
    return real_step(*args, **kwargs)

os.fork, harness.fedsurrogate_round = fork, step
try:
    harness.run_experiment(dataclasses.replace(cfg, hidden_dims=(2, 2)))
except RuntimeError as exc:
    print(exc)
gc.collect()
"""


def test_no_pipe_file_is_left_unclosed():
    """Python prints a ResourceWarning raised in a destructor as
    "Exception ignored" and still exits 0, so stderr is read too."""
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", LEAK_CHECK],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    clean, killed = proc.stdout.splitlines()
    assert clean == "3"
    assert re.fullmatch(r"training worker process \d+ ended in round 1 without replying "
                        r"\(exit code -9\)", killed)
    assert "ResourceWarning" not in proc.stderr
