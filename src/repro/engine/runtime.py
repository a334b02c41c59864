"""Fault-tolerant execution layer for shard fan-out.

PR 1's :class:`~repro.engine.parallel.SamplingEngine` made θ-sized
sample campaigns parallel; this module makes them *survivable*. A long
IMM/ITRS run is minutes of embarrassingly parallel shards, and on real
machines workers get OOM-killed, pools break, shards hang, and
operators hit Ctrl-C. The runtime turns each of those from "lose
everything, print a traceback" into a recoverable event:

* **Recovery** — every shard is tracked through a small state machine
  (pending → in flight → done/failed). A transiently failed shard is
  retried with exponential backoff + jitter under a
  :class:`RetryPolicy`; a broken process pool is rebuilt (bounded by
  ``max_pool_rebuilds``), and when the pool is beyond saving the run
  **degrades gracefully** to the in-process serial path and still
  completes.
* **Determinism under failure** — each shard is keyed to a
  ``SeedSequence`` from the master generator's spawn tree, so attempt
  ``j`` of shard ``i`` replays exactly the samples attempt ``0`` would
  have produced. Any retry schedule therefore yields bit-identical
  output; the fault-injection tests assert this property directly.
* **Deadlines & budgets** — a :class:`RunBudget` (wall-clock
  :class:`Deadline`, max samples, max RR memory) is checked between
  shard completions and raises
  :class:`~repro.exceptions.BudgetExceededError` carrying the partial
  result instead of dying.
* **Observability** — a :class:`RunTelemetry` counter block records
  retries, rebuilds, degradations and checkpoint activity so failures
  are visible in result objects and CLI summaries, not silent.

Error classification: :class:`~repro.exceptions.ReproError` (and the
fault harness's ``InjectedPermanentFault``) are *permanent* — they mean
the inputs are wrong and retrying cannot help — and surface immediately
as :class:`~repro.exceptions.ShardFailedError`. Everything else
(``BrokenProcessPool``, ``TimeoutError``, ``OSError``, injected
transients) is *transient* and retried.
"""

from __future__ import annotations

import random
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.engine.faults import FaultPlan, InjectedPermanentFault
from repro.exceptions import (
    BudgetExceededError,
    ConfigurationError,
    ReproError,
    ShardFailedError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.parallel import SamplingEngine


# ---------------------------------------------------------------------------
# Policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the runtime fights for a shard before giving up.

    Attributes
    ----------
    max_attempts:
        Total attempts per shard (first run included). ``1`` disables
        retries.
    backoff_base, backoff_factor, backoff_max:
        Attempt ``j`` (0-based retries) sleeps
        ``min(backoff_base * backoff_factor**j, backoff_max)`` seconds
        before rerunning, plus jitter.
    jitter:
        Uniform jitter fraction added to each delay (``0.1`` → up to
        +10%). Jitter only affects *timing*, never results.
    max_pool_rebuilds:
        Broken-pool events tolerated before the run degrades to the
        in-process serial path.
    shard_timeout:
        Optional per-shard wall-clock watchdog (pool mode): a shard in
        flight longer than this is presumed hung, the pool is rebuilt
        and the shard retried. ``None`` disables.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.1
    max_pool_rebuilds: int = 2
    shard_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not (0.0 <= self.jitter <= 1.0):
            raise ConfigurationError(
                f"jitter must lie in [0, 1], got {self.jitter}"
            )
        if self.max_pool_rebuilds < 0:
            raise ConfigurationError("max_pool_rebuilds must be >= 0")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ConfigurationError("shard_timeout must be positive")

    def delay(self, retry_number: int, jitter_rng: random.Random) -> float:
        """Backoff delay (seconds) before retry ``retry_number`` (0-based)."""
        base = min(
            self.backoff_base * self.backoff_factor ** retry_number,
            self.backoff_max,
        )
        return base * (1.0 + self.jitter * jitter_rng.random())


def is_permanent(exc: BaseException) -> bool:
    """Classify an exception: permanent (don't retry) vs transient."""
    return isinstance(exc, (ReproError, InjectedPermanentFault))


# ---------------------------------------------------------------------------
# Deadlines & budgets
# ---------------------------------------------------------------------------


class Deadline:
    """A wall-clock deadline anchored at construction time.

    ``Deadline(None)`` never expires; ``Deadline(30.0)`` expires 30
    seconds after it is created (monotonic clock).
    """

    __slots__ = ("seconds", "_expires_at")

    def __init__(self, seconds: float | None) -> None:
        if seconds is not None and seconds <= 0:
            raise ConfigurationError(
                f"deadline seconds must be positive, got {seconds}"
            )
        self.seconds = seconds
        self._expires_at = (
            None if seconds is None else time.monotonic() + seconds
        )

    @classmethod
    def never(cls) -> "Deadline":
        """A deadline that never expires."""
        return cls(None)

    def remaining(self) -> float | None:
        """Seconds left, or ``None`` for a never-expiring deadline."""
        if self._expires_at is None:
            return None
        return self._expires_at - time.monotonic()

    def expired(self) -> bool:
        """Whether the deadline has passed."""
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Deadline(seconds={self.seconds})"


class RunBudget:
    """Hard limits on one run: wall clock, sample count, RR memory.

    Threaded through the high-level entry points
    (``trs``/``imm``/``itrs``/``greedy_mc``/``estimate_spread``) and
    checked between shard completions; exceeding any limit raises
    :class:`~repro.exceptions.BudgetExceededError` whose ``partial``
    attribute carries the work completed so far. The wall deadline is
    anchored lazily at the first check, so a budget can be built ahead
    of the run it guards.
    """

    def __init__(
        self,
        wall_seconds: float | None = None,
        max_samples: int | None = None,
        max_rr_members: int | None = None,
    ) -> None:
        if max_samples is not None and max_samples <= 0:
            raise ConfigurationError(
                f"max_samples must be positive, got {max_samples}"
            )
        if max_rr_members is not None and max_rr_members <= 0:
            raise ConfigurationError(
                f"max_rr_members must be positive, got {max_rr_members}"
            )
        if wall_seconds is not None and wall_seconds <= 0:
            raise ConfigurationError(
                f"wall_seconds must be positive, got {wall_seconds}"
            )
        self.wall_seconds = wall_seconds
        self.max_samples = max_samples
        self.max_rr_members = max_rr_members
        self.samples_used = 0
        self.rr_members_used = 0
        self._deadline: Deadline | None = None

    def deadline(self) -> Deadline:
        """The (lazily anchored) wall-clock deadline of this budget."""
        if self._deadline is None:
            self._deadline = Deadline(self.wall_seconds)
        return self._deadline

    def check(self, partial: object = None) -> None:
        """Raise :class:`BudgetExceededError` if any limit is exceeded."""
        if self.deadline().expired():
            raise BudgetExceededError("wall_seconds", partial=partial)
        if (
            self.max_samples is not None
            and self.samples_used > self.max_samples
        ):
            raise BudgetExceededError("max_samples", partial=partial)
        if (
            self.max_rr_members is not None
            and self.rr_members_used > self.max_rr_members
        ):
            raise BudgetExceededError("max_rr_members", partial=partial)

    def charge_samples(self, count: int, partial: object = None) -> None:
        """Account for ``count`` drawn samples, then :meth:`check`."""
        self.samples_used += int(count)
        self.check(partial=partial)

    def charge_rr_members(self, count: int, partial: object = None) -> None:
        """Account for ``count`` stored RR members, then :meth:`check`."""
        self.rr_members_used += int(count)
        self.check(partial=partial)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunBudget(wall_seconds={self.wall_seconds}, "
            f"max_samples={self.max_samples}, "
            f"max_rr_members={self.max_rr_members}, "
            f"samples_used={self.samples_used}, "
            f"rr_members_used={self.rr_members_used})"
        )


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------


class RunTelemetry:
    """Counters that make failure handling observable.

    Attached to a :class:`~repro.engine.parallel.SamplingEngine` and
    accumulated across its runs; result objects snapshot it via
    :meth:`as_dict` and :class:`~repro.core.session.CampaignSession`
    exposes :meth:`summary` in its repr.

    Since the observability PR this is a *view* over a
    :class:`~repro.obs.metrics.MetricsRegistry`: each field reads and
    writes a ``runtime.<field>`` counter. An engine constructed inside
    an :func:`repro.obs.observe` scope binds to that scope's registry,
    so runtime counters appear in the global run report for free; with
    no scope active (the default) each telemetry block owns a private
    registry and behaves exactly like the old plain-field dataclass.
    """

    FIELDS = (
        "shards_run",
        "shards_retried",
        "shards_failed",
        "pool_rebuilds",
        "degradations",
        "checkpoint_writes",
        "checkpoint_loads",
        "parallel_fallbacks",
    )
    _PREFIX = "runtime."
    _COUNTERS = tuple((name, "runtime." + name) for name in FIELDS)

    __slots__ = ("registry",)

    def __init__(self, registry=None, **counts: int) -> None:
        if registry is None:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
        object.__setattr__(self, "registry", registry)
        for key, value in counts.items():
            if key not in self.FIELDS:
                raise TypeError(
                    f"RunTelemetry has no counter {key!r}"
                )
            if value:
                setattr(self, key, value)

    def __getattr__(self, name: str) -> int:
        if name in self.FIELDS:
            return int(self.registry.value(self._PREFIX + name, 0))
        raise AttributeError(
            f"{type(self).__name__!s} object has no attribute {name!r}"
        )

    def __setattr__(self, name: str, value: int) -> None:
        if name in self.FIELDS:
            self.registry.counter(self._PREFIX + name).value = int(value)
        else:
            object.__setattr__(self, name, value)

    def as_dict(self) -> dict[str, int]:
        """Plain-dict snapshot (for result objects / JSON)."""
        value = self.registry.value
        return {
            name: int(value(counter, 0)) for name, counter in self._COUNTERS
        }

    def merge(self, other: "RunTelemetry") -> None:
        """Add another telemetry block into this one."""
        for key, value in other.as_dict().items():
            setattr(self, key, getattr(self, key) + value)

    def summary(self) -> str:
        """One-line human-readable summary (only non-zero counters)."""
        parts = [f"{k}={v}" for k, v in self.as_dict().items() if v]
        return ", ".join(parts) if parts else "clean"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunTelemetry({self.summary()})"


# ---------------------------------------------------------------------------
# Shard execution
# ---------------------------------------------------------------------------

#: Placeholder for a shard whose result is not yet available.
_PENDING = object()


def _attempt_shard(worker, args, shard_index: int, attempt: int,
                   fault_plan: FaultPlan | None, in_pool: bool):
    """Run one shard attempt; module-level so pools can pickle it."""
    if fault_plan is not None:
        fault_plan.apply(shard_index, attempt, in_pool=in_pool)
    return worker(*args)


def execute_shards(
    engine: "SamplingEngine",
    worker: Callable,
    tasks: list[tuple],
    budget: RunBudget | None = None,
    on_prefix: Callable[[int, list, bool], None] | None = None,
    preloaded: int = 0,
    preloaded_results: list | None = None,
    force_serial: bool = False,
) -> list:
    """Run shard ``tasks`` under the engine's retry policy.

    Parameters
    ----------
    engine:
        The owning :class:`SamplingEngine` — supplies worker count, the
        pool (with rebuild), the :class:`RetryPolicy`, the optional
        :class:`~repro.engine.faults.FaultPlan` and the
        :class:`RunTelemetry` sink.
    worker:
        Module-level shard function; ``tasks[i]`` is its argument tuple.
        Each task must derive all randomness from the ``SeedSequence``
        embedded in its arguments so reruns are bit-identical.
    budget:
        Optional :class:`RunBudget`, checked between shard completions.
    on_prefix:
        ``on_prefix(done, results, force)`` is invoked whenever the
        contiguous done-prefix advances (checkpoint hook), and once with
        ``force=True`` when the run is interrupted.
    preloaded / preloaded_results:
        Resume support: the first ``preloaded`` shards are taken from
        ``preloaded_results`` and never executed.
    force_serial:
        Run on the in-process path even when the engine has a pool —
        used by the small-run fallback, which has already decided that
        pool dispatch would cost more than the sampling itself.

    Returns the shard results in shard order. Raises
    :class:`ShardFailedError` when a shard exhausts its attempts,
    :class:`BudgetExceededError` (partial = done-prefix results) on
    budget exhaustion, and re-raises ``KeyboardInterrupt`` after
    cancelling outstanding work and force-flushing the prefix.
    """
    policy = engine.retry_policy or RetryPolicy()
    plan = engine.fault_plan
    telemetry = engine.telemetry
    n = len(tasks)
    results: list = [_PENDING] * n
    for i in range(min(preloaded, n)):
        results[i] = preloaded_results[i]
    prefix = _prefix_len(results)
    jitter_rng = random.Random(0x5EED ^ n)

    def flush(force: bool = False) -> None:
        if on_prefix is not None:
            on_prefix(_prefix_len(results), results, force)

    pending = [i for i in range(n) if results[i] is _PENDING]
    if not pending:
        flush()
        return results

    try:
        if force_serial or engine.workers == 1 or len(pending) == 1:
            _execute_serial(
                engine, worker, tasks, results, pending, policy, plan,
                telemetry, budget, jitter_rng, flush,
            )
        else:
            _execute_pool(
                engine, worker, tasks, results, pending, policy, plan,
                telemetry, budget, jitter_rng, flush,
            )
    except KeyboardInterrupt:
        engine.abort_pool()
        flush(force=True)
        raise
    except BudgetExceededError as exc:
        flush(force=True)
        if exc.partial is None:
            exc.partial = results[: _prefix_len(results)]
        raise
    # A completed operation always gets a durable checkpoint (one write
    # per op), so a later interrupt never forces recomputing it.
    flush(force=True)
    assert _prefix_len(results) == n
    return results


def _prefix_len(results: list) -> int:
    """Length of the contiguous done-prefix."""
    for i, value in enumerate(results):
        if value is _PENDING:
            return i
    return len(results)


def _run_with_retries(
    worker, args, idx: int, first_attempt: int, policy: RetryPolicy,
    plan: FaultPlan | None, telemetry: RunTelemetry,
    budget: RunBudget | None, jitter_rng: random.Random,
):
    """Serial retry loop for one shard. Returns the shard result."""
    attempt = first_attempt
    while True:
        if budget is not None:
            budget.check()
        try:
            result = _attempt_shard(worker, args, idx, attempt, plan,
                                    in_pool=False)
            telemetry.shards_run += 1
            return result
        except Exception as exc:  # noqa: BLE001 - classified below
            attempt += 1
            if is_permanent(exc) or attempt >= policy.max_attempts:
                telemetry.shards_failed += 1
                raise ShardFailedError(idx, attempt, exc) from exc
            telemetry.shards_retried += 1
            time.sleep(policy.delay(attempt - 1, jitter_rng))


def _execute_serial(
    engine, worker, tasks, results, pending, policy, plan, telemetry,
    budget, jitter_rng, flush,
) -> None:
    """In-process path: shards in order, retries inline."""
    for idx in pending:
        results[idx] = _run_with_retries(
            worker, tasks[idx], idx, 0, policy, plan, telemetry, budget,
            jitter_rng,
        )
        flush()
        if plan is not None:
            plan.after_shard_done()


def _execute_pool(
    engine, worker, tasks, results, pending, policy, plan, telemetry,
    budget, jitter_rng, flush,
) -> None:
    """Pool path: full fan-out with rebuilds, watchdog, degradation."""
    attempts = {idx: 0 for idx in pending}
    queue = deque(pending)
    retry_at: list[tuple[float, int]] = []  # (ready time, shard index)
    in_flight: dict = {}  # future -> (idx, submitted_at)
    rebuilds = 0

    def requeue_in_flight(charged: set[int] | None) -> None:
        """Requeue in-flight shards; ``charged=None`` charges them all.

        A broken pool kills every in-flight shard, so each one consumed
        an attempt — charging only the shard whose future happened to
        surface the error first would let a pool-killing shard be
        resubmitted at its original attempt number and kill the rebuilt
        pool again (and again). The watchdog path passes an explicit set
        instead: shards that merely lost their pool are rerun without
        charge (bit-identical replay makes that free).
        """
        for fut, (idx, _t0) in list(in_flight.items()):
            fut.cancel()
            if charged is None or idx in charged:
                attempts[idx] += 1
                telemetry.shards_retried += 1
                if attempts[idx] >= policy.max_attempts:
                    telemetry.shards_failed += 1
                    raise ShardFailedError(
                        idx, attempts[idx],
                        TimeoutError("shard lost with its pool"),
                    )
            queue.append(idx)
        in_flight.clear()

    def handle_broken_pool(charged: set[int] | None) -> None:
        nonlocal rebuilds
        rebuilds += 1
        requeue_in_flight(charged)
        if rebuilds > policy.max_pool_rebuilds:
            telemetry.degradations += 1
            engine.abort_pool()
            # Graceful degradation: finish everything left in-process.
            remaining = sorted(set(queue) | {i for _, i in retry_at})
            queue.clear()
            retry_at.clear()
            for idx in remaining:
                results[idx] = _run_with_retries(
                    worker, tasks[idx], idx, attempts[idx], policy, plan,
                    telemetry, budget, jitter_rng,
                )
                flush()
                if plan is not None:
                    plan.after_shard_done()
        else:
            telemetry.pool_rebuilds += 1
            engine.rebuild_pool()

    while queue or retry_at or in_flight:
        now = time.monotonic()
        # Promote due retries back into the submission queue.
        retry_at, due = (
            [(t, i) for t, i in retry_at if t > now],
            [i for t, i in retry_at if t <= now],
        )
        queue.extend(due)
        # Submit everything submittable.
        while queue:
            idx = queue.popleft()
            try:
                if plan is not None:
                    plan.before_submit()
                fut = engine.pool().submit(
                    _attempt_shard, worker, tasks[idx], idx, attempts[idx],
                    plan, True,
                )
            except BrokenProcessPool:
                queue.appendleft(idx)
                handle_broken_pool(charged=None)
                if not in_flight and not queue and not retry_at:
                    return
                continue
            in_flight[fut] = (idx, time.monotonic())
        if not in_flight:
            if retry_at:
                time.sleep(max(0.0, min(t for t, _ in retry_at) - now))
            continue

        timeout = 0.05
        if policy.shard_timeout is not None:
            timeout = min(timeout, policy.shard_timeout / 4.0)
        done, _ = wait(
            set(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
        )

        for fut in done:
            idx, _t0 = in_flight.pop(fut)
            try:
                results[idx] = fut.result()
            except BrokenProcessPool:
                queue.append(idx)
                attempts[idx] += 1
                telemetry.shards_retried += 1
                if attempts[idx] >= policy.max_attempts:
                    telemetry.shards_failed += 1
                    raise ShardFailedError(
                        idx, attempts[idx], BrokenProcessPool("pool broke")
                    )
                handle_broken_pool(charged=None)
                break
            except Exception as exc:  # noqa: BLE001 - classified below
                attempts[idx] += 1
                if is_permanent(exc) or attempts[idx] >= policy.max_attempts:
                    telemetry.shards_failed += 1
                    raise ShardFailedError(idx, attempts[idx], exc) from exc
                telemetry.shards_retried += 1
                retry_at.append((
                    time.monotonic()
                    + policy.delay(attempts[idx] - 1, jitter_rng),
                    idx,
                ))
            else:
                telemetry.shards_run += 1
                flush()
                if budget is not None:
                    budget.check()
                if plan is not None:
                    plan.after_shard_done()

        # Hung-shard watchdog: anything in flight beyond the timeout is
        # presumed stuck; the only way to reclaim its worker is a pool
        # rebuild.
        if policy.shard_timeout is not None and in_flight:
            now = time.monotonic()
            stuck = {
                idx
                for fut, (idx, t0) in in_flight.items()
                if not fut.done() and now - t0 > policy.shard_timeout
            }
            if stuck:
                handle_broken_pool(charged=stuck)
