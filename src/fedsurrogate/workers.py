"""One round's client training split over forked worker processes.

``harness.run_experiment`` trains each round's clients in w = min(CPUs
the process may use, n_clients) parts, client c in part c mod w.
Threads cannot split training: numpy holds the GIL in matmuls this
small. ``RoundTrainers`` trains part 0 on the calling thread and each
other part in a worker process forked once per experiment, right after
the model warm-up, so an experiment stopped during set-up forks
nothing. Every round it writes each worker one message over a pipe: the
round number, the global model and Neurotoxin's previous global delta.
The worker trains all its clients, then writes back a status byte and
the raw float64 models (writing each as it is trained would stall the
worker, since a 64 KB pipe holds three models). They are read with
``readinto`` into fresh read-only arrays that ``ParameterVector`` wraps
without a copy. The updates, the round matrix, the defense and the
evaluation stay in the calling process.

Bytes. A client's training is a pure function of the global model, the
previous global delta, its shard and its derived seed, and the models
travel as raw bits, so the report's bytes do not depend on w. Pipes are
the only channel: a memory block reused across rounds would be
rewritten under the models a caller still holds from an earlier round.

Failures. Each part trains in id order and stops at its first failing
client, and the exception of the lowest failing id is raised, as with
one part; a worker's is pickled back with its traceback as a note. An
error, a ``KeyboardInterrupt`` or a worker's death ends the run with an
exception, not a hang: the workers are killed and reaped, so no child
is left. Workers ignore SIGINT (the calling process owns the interrupt)
and leave through ``os._exit`` when their command pipe closes, so none
returns into its caller's stack.

Processes. With w = 1 nothing is forked, and the same holds while
another Python thread is alive, since a fork could copy a lock that
thread holds; the distance threads of ``params._split_rows`` live only
inside a defense call. The workers inherit the process's environment,
so BLAS stays pinned to the same thread count in each of them.

Hooks. A worker calls the training stages as ``harness``'s module
attributes held them at the fork, so what a hook wrapped around one
records in a worker stays there. A round therefore trains in one
process while any of the five attack trainers is hooked: the round
benchmark's tracer hooks them, and its training spans and counts cover
every client. ``local_train`` may be hooked without that, as the
benchmark's timed runs do to mark the end of the warm-up; a hook on it
alone sees the warm-up and part 0's clients only.
"""
from __future__ import annotations

import io
import os
import pickle
import signal
import struct
import traceback
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .params import LayerSchema, ParameterVector

# (client id, round, global model, previous global delta) -> trained model
Train = Callable[[int, int, ParameterVector, "np.ndarray | None"], ParameterVector]

_COMMAND = struct.Struct("<q?")     # round, whether a previous global delta follows
_FAILURE = struct.Struct("<qQ")     # failed client, length of its pickled exception
_OK, _FAILED = b"\x00", b"\x01"


def _train_part(train: Train, clients: Sequence[int], rnd: int,
                global_model: ParameterVector, prev_delta: np.ndarray | None):
    """The part's models in client order, up to its first failing
    client; returns (models, (client, exception) or None)."""
    models = []
    for cid in clients:
        try:
            models.append(train(cid, rnd, global_model, prev_delta))
        except Exception as exc:
            return models, (cid, exc)
    return models, None


def _write_all(f: io.FileIO, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[f.write(view):]


def _read_exact(f: io.FileIO, buf) -> None:
    view = memoryview(buf).cast("B")
    while view:
        got = f.readinto(view)
        if not got:
            raise EOFError("pipe closed mid-message")
        view = view[got:]


def _read_array(f: io.FileIO, length: int) -> np.ndarray:
    """``length`` float64 values from ``f`` in a fresh read-only array."""
    values = np.empty(length)
    _read_exact(f, values)
    values.flags.writeable = False
    return values


def _serve(cmd: io.FileIO, res: io.FileIO, clients: Sequence[int], train: Train,
           schema: LayerSchema) -> None:
    """A worker's loop: one reply per command until the command pipe
    closes. A client's exception is pickled back, with the worker's
    traceback as a note, and the worker waits for the next command."""
    header = bytearray(_COMMAND.size)
    while True:
        try:
            _read_exact(cmd, header)
        except EOFError:
            return
        rnd, has_prev = _COMMAND.unpack(header)
        global_model = ParameterVector(_read_array(cmd, schema.total_length), schema)
        prev_delta = _read_array(cmd, schema.total_length) if has_prev else None
        models, failure = _train_part(train, clients, rnd, global_model, prev_delta)
        if failure is None:
            _write_all(res, _OK)
            for model in models:
                _write_all(res, model.values)
            continue
        cid, exc = failure
        exc.add_note(f"raised training client {cid} in worker process {os.getpid()}:\n"
                     + "".join(traceback.format_exception(exc)))
        try:
            blob = pickle.dumps(exc)
        except Exception:
            blob = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
        _write_all(res, _FAILED + _FAILURE.pack(cid, len(blob)) + blob)


@dataclass
class _Worker:
    pid: int
    clients: list[int]
    cmd: io.FileIO      # the parent's write end of the command pipe
    res: io.FileIO      # the parent's read end of the reply pipe
    reaped: bool = False


class RoundTrainers:
    """Trains every client of a round: part 0 of ``parts`` on the
    calling thread, each other part in a worker process forked on
    entering and reaped on leaving, killed first when leaving on an
    exception."""

    def __init__(self, train: Train, parts: Sequence[Sequence[int]], schema: LayerSchema):
        self._train = train
        self._parts = [list(p) for p in parts]
        self._schema = schema
        self._workers: list[_Worker] = []

    def __enter__(self) -> "RoundTrainers":
        try:
            for clients in self._parts[1:]:
                self._workers.append(self._fork(clients))
        except BaseException:
            self._close(kill=True)
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._close(kill=exc_type is not None)

    def _fork(self, clients: list[int]) -> _Worker:
        cmd_r, cmd_w = os.pipe()
        res_r, res_w = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (cmd_r, cmd_w, res_r, res_w):
                os.close(fd)
            raise
        if pid == 0:
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(cmd_w)
                os.close(res_r)
                for other in self._workers:   # their parent ends, inherited
                    other.cmd.close()
                    other.res.close()
                with io.FileIO(cmd_r, "rb") as cmd, io.FileIO(res_w, "wb") as res:
                    _serve(cmd, res, clients, self._train, self._schema)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(cmd_r)
        os.close(res_w)
        return _Worker(pid, clients, io.FileIO(cmd_w, "wb"), io.FileIO(res_r, "rb"))

    def _close(self, kill: bool) -> None:
        for w in self._workers:
            if kill and not w.reaped:
                os.kill(w.pid, signal.SIGKILL)
            w.cmd.close()
            w.res.close()
        for w in self._workers:
            if not w.reaped:
                os.waitpid(w.pid, 0)
        self._workers.clear()

    def round(self, rnd: int, global_model: ParameterVector,
              prev_delta: np.ndarray | None) -> list[ParameterVector]:
        """Every client's trained model, indexed by client id. When
        clients fail, the exception of the lowest failing id is raised,
        as training them one by one in id order would raise it: each
        part trains in id order and stops at its first failure."""
        if prev_delta is not None:
            prev_delta = np.ascontiguousarray(prev_delta, dtype=np.float64)
        for w in self._workers:
            try:
                _write_all(w.cmd, _COMMAND.pack(rnd, prev_delta is not None))
                _write_all(w.cmd, global_model.values)
                if prev_delta is not None:
                    _write_all(w.cmd, prev_delta)
            except BrokenPipeError:
                raise self._ended(w, rnd) from None
        replies = [(self._parts[0], *_train_part(
            self._train, self._parts[0], rnd, global_model, prev_delta))]
        replies += [(w.clients, *self._reply(w, rnd)) for w in self._workers]
        failures = [failure for _, _, failure in replies if failure]
        if failures:
            raise min(failures, key=lambda f: f[0])[1]
        models: list[ParameterVector] = [None] * sum(map(len, self._parts))
        for clients, trained, _ in replies:
            for cid, model in zip(clients, trained):
                models[cid] = model
        return models

    @staticmethod
    def _ended(w: _Worker, rnd: int) -> RuntimeError:
        """Reaps a worker found gone, and says how it ended."""
        _, status = os.waitpid(w.pid, 0)
        w.reaped = True
        return RuntimeError(
            f"training worker process {w.pid} ended in round {rnd} without replying "
            f"(exit code {os.waitstatus_to_exitcode(status)})")

    def _reply(self, w: _Worker, rnd: int):
        """A worker's reply to round ``rnd``: (models, failure or None)."""
        status = bytearray(1)
        try:
            _read_exact(w.res, status)
            if status == _OK:
                length = self._schema.total_length
                return [ParameterVector(_read_array(w.res, length), self._schema)
                        for _ in w.clients], None
            head = bytearray(_FAILURE.size)
            _read_exact(w.res, head)
            cid, size = _FAILURE.unpack(head)
            blob = bytearray(size)
            _read_exact(w.res, blob)
        except EOFError:
            raise self._ended(w, rnd) from None
        try:
            exc = pickle.loads(blob)
        except Exception:
            exc = RuntimeError(f"training client {cid} failed in worker process {w.pid}, "
                               "and its exception could not be unpickled")
        return [], (cid, exc)
