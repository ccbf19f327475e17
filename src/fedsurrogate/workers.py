"""One round's client training split over forked worker processes.

``harness.run_experiment`` trains each round's clients in w = min(CPUs
the process may use, n_clients) parts, client c in part c mod w.
Threads cannot split training: numpy holds the GIL in matmuls this
small. ``RoundTrainers`` trains part 0 on the calling thread and each
other part in a worker process forked once per experiment, right after
the model warm-up, so an experiment stopped during set-up forks
nothing. Every round it sends each worker one pickled command over a
pipe: the round number, the global model and Neurotoxin's previous
global delta. The worker trains its part (``harness._train_part``: the
attackers one by one, the benign clients as one stack), then sends back
one pickled reply: its models as the rows of one array, the client of
each row, and its failure if any (sending each model as it is trained
would stall the worker, since a 64 KB pipe holds three models). Both
travel as pickle protocol 5, which loads a read-only float64 array as a
read-only array over the bytes it was read into, so ``ParameterVector``
wraps each row without a copy; part 0's array is made read-only for
the same end. The updates, the
round matrix, the defense and the evaluation stay in the calling
process.

Bytes. A client's training is a pure function of the global model, the
previous global delta, its shard and its derived seed, and pickle
carries the models' float64 bits as they are, so the report's bytes do
not depend on w. Pipes are the only channel: a memory block reused
across rounds would be rewritten under the models a caller still holds
from an earlier round.

Failures. A part reports the first of its clients to raise, in id
order, and stops there; the stacked benign clients cannot fail one by
one, so an exception of the stack is charged to its lowest id. A row
that is not finite fails its client when the calling process wraps it,
with the ``ValueError`` that training the client alone raises. Of all
the failures of a round, the exception of the lowest failing id is
raised, as with one part; a worker's is pickled back with its traceback
as a note. One that does not pickle comes back as a ``RuntimeError``
with its type and message, and one that does not unpickle as a
``RuntimeError`` naming its client. An error, a ``KeyboardInterrupt`` or
a worker's death ends the run with an exception, not a hang: the
workers are killed and reaped, so no child is left. Workers ignore
SIGINT (the calling process owns the interrupt) and leave through
``os._exit`` when their command pipe closes, so none returns into its
caller's stack.

Processes. With w = 1 nothing is forked, and the same holds while
another Python thread is alive, since a fork could copy a lock that
thread holds; no code of this package starts a thread, so only a
caller's threads can stop the fork. The workers inherit the process's
environment, so BLAS stays pinned to the same thread count in each of
them.

Hooks. A worker calls the training stages as ``harness``'s module
attributes held them at the fork, so what a hook wrapped around one
records in a worker stays there. While any trainer on ``harness``'s
attack roster is hooked, a round therefore trains in one process, and
its benign clients one by one through ``harness.local_train``: the
round benchmark's tracer hooks them all, and its training spans and
counts cover every client. ``local_train`` may be hooked without that,
as the benchmark's timed runs do to mark the end of the warm-up; a hook
on it alone then sees the warm-up only, since the benign clients train
as stacks.
"""
from __future__ import annotations

import contextlib
import os
import pickle
import signal
import traceback
from dataclasses import dataclass
from typing import BinaryIO, Callable, Sequence

import numpy as np

from .params import LayerSchema, ParameterVector

# (the part's client ids, round, global model, previous global delta) ->
# (the client of each row, the models as the rows of one array, and None,
# or (client, exception) at the part's first failing client, whose row and
# those after it are left out)
Train = Callable[[Sequence[int], int, ParameterVector, "np.ndarray | None"],
                 tuple[list[int], np.ndarray, "tuple[int, Exception] | None"]]


def _send(f: BinaryIO, message) -> None:
    pickle.dump(message, f, protocol=5)
    f.flush()


def _serve(cmd: BinaryIO, res: BinaryIO, clients: Sequence[int], train: Train,
           schema: LayerSchema) -> None:
    """A worker's loop: one reply per command until the command pipe
    closes. A command is (round, global model values, previous global
    delta or None); a reply is what ``train`` returns, with a failure's
    exception pickled. The exception carries the worker's traceback as a
    note, and the worker waits for the next command."""
    while True:
        try:
            rnd, values, prev_delta = pickle.load(cmd)
        except EOFError:
            return
        ids, rows, failure = train(clients, rnd, ParameterVector(values, schema), prev_delta)
        if failure is not None:
            cid, exc = failure
            exc.add_note(f"raised training client {cid} in worker process {os.getpid()}:\n"
                         + "".join(traceback.format_exception(exc)))
            try:
                blob = pickle.dumps(exc)
            except Exception:
                blob = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
            failure = (cid, blob)
        _send(res, (ids, rows, failure))


@dataclass
class _Worker:
    pid: int
    cmd: BinaryIO       # the parent's write end of the command pipe
    res: BinaryIO       # the parent's read end of the reply pipe
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
                with open(cmd_r, "rb") as cmd, open(res_w, "wb") as res:
                    _serve(cmd, res, clients, self._train, self._schema)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(cmd_r)
        os.close(res_w)
        return _Worker(pid, open(cmd_w, "wb"), open(res_r, "rb"))

    def _close(self, kill: bool) -> None:
        for w in self._workers:
            if kill and not w.reaped:
                os.kill(w.pid, signal.SIGKILL)
            # a command a dead worker left unread fails to flush; the
            # pipe is closed all the same
            with contextlib.suppress(BrokenPipeError):
                w.cmd.close()
            w.res.close()
        for w in self._workers:
            if not w.reaped:
                os.waitpid(w.pid, 0)
        self._workers.clear()

    def round(self, rnd: int, global_model: ParameterVector,
              prev_delta: np.ndarray | None) -> list[ParameterVector]:
        """Every client's trained model, indexed by client id, each a view
        of its part's reply. When clients fail, the exception of the
        lowest failing id is raised, as training them one by one in id
        order would raise it; a row that is not finite fails its client
        with ``ParameterVector``'s ``ValueError``."""
        for w in self._workers:
            try:
                _send(w.cmd, (rnd, global_model.values, prev_delta))
            except BrokenPipeError:
                raise self._ended(w, rnd) from None
        replies = [self._train(self._parts[0], rnd, global_model, prev_delta)]
        replies += [self._reply(w, rnd) for w in self._workers]
        models: list[ParameterVector] = [None] * sum(map(len, self._parts))
        failures = [failure for _, _, failure in replies if failure]
        for ids, rows, _ in replies:
            rows.flags.writeable = False   # so each row is wrapped, not copied
            for cid, row in zip(ids, rows):
                try:
                    models[cid] = ParameterVector(row, self._schema)
                except ValueError as exc:
                    failures.append((cid, exc))
        if failures:
            raise min(failures, key=lambda f: f[0])[1]
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
        """A worker's reply to round ``rnd``, as ``Train`` describes it. A
        worker that died mid-reply leaves a truncated pickle, which raises
        ``UnpicklingError`` or ``EOFError``."""
        try:
            ids, rows, failure = pickle.load(w.res)
        except (EOFError, pickle.UnpicklingError):
            raise self._ended(w, rnd) from None
        if failure is not None:
            cid, blob = failure
            try:
                failure = (cid, pickle.loads(blob))
            except Exception:
                failure = (cid, RuntimeError(f"training client {cid} failed in worker process "
                                             f"{w.pid}, and its exception could not be unpickled"))
        return ids, rows, failure
