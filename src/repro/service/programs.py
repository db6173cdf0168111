"""The compiled-program cache: content-addressed, LRU, optional disk.

Synthesis + technology mapping + folding is by far the most expensive
step of serving a request (seconds for AES against microseconds of
run control), and it is pure: the result depends only on the benchmark
name, the LUT width, the tile size, and the PE library itself.  So the
serving layer caches it content-addressed — the key includes a hash of
the PE library source, making stale entries unreachable after any
library edit rather than silently wrong.

Entries carry the mapped netlist, the folding schedule for the keyed
tile size, and all three static-analysis reports (netlist, schedule,
dataflow), so admission control can re-check a cached program without
re-linting and a rejection can hand the caller the full
:class:`~repro.analysis.AnalysisReport`.

Each entry also carries an **analysis certificate** — a content digest
of the schedule bound to a fingerprint of the rule pack that produced
the verdict.  On a warm hit the cache *verifies* the certificate (one
hash, microseconds) instead of either re-running the ~40-rule lint
pass or trusting stored reports blindly; a stale certificate (rule
pack changed, artifact bytes differ) triggers a transparent re-lint
and re-issue.  ``cert_hits`` / ``cert_misses`` count the outcomes.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, NamedTuple, Optional, Tuple, Union

from ..analysis import (
    AnalysisReport,
    analyze_dataflow,
    analyze_netlist,
    analyze_schedule,
)
from ..analysis.certs import (
    AnalysisCertificate,
    artifact_digest,
    issue_certificate,
    verify_certificate,
)
from ..circuits.library import library_version, mapped_pe, pe_names
from ..circuits.netlist import Netlist
from ..folding.io import schedule_from_dict, schedule_to_dict
from ..folding.schedule import FoldingSchedule, TileResources
from ..folding.scheduler import list_schedule
from ..freac.device import AcceleratorProgram
from ..freac.specialize import plan_artifact
from ..optimizer import OptimizerConfig, optimize_schedule
from ..telemetry import Telemetry
from ..telemetry.core import resolve

logger = logging.getLogger("repro.service")

# v6: the compiled plan addresses each LUT column's configuration
# sub-array by one index (``lut_subarray``), so plan digests changed.
# v5: optimizer tokens no longer hash a solver-backend knob, so v4
# optimized entries sit under stale keys.  v4 added the compiled-plan
# artifact (content-addressed by its digest and verified against the
# schedule at load), v3 the optimizer token + audit stats, v2 the
# dataflow report + analysis certificate.  Old entries fail from_dict,
# get quarantined, and recompile once — acceptable for a cache.
DISK_FORMAT_VERSION = 6


class ProgramKey(NamedTuple):
    """Content address of one compiled program.

    ``optimizer`` is the :meth:`OptimizerConfig.token` that produced
    the entry ("" for the plain heuristic compile), so heuristic and
    optimized programs — or two different optimizer configurations —
    can never collide on one cache slot.
    """

    benchmark: str
    lut_inputs: int
    mccs_per_tile: int
    library_hash: str
    optimizer: str = ""

    @property
    def filename(self) -> str:
        suffix = f"_{self.optimizer}" if self.optimizer else ""
        return (
            f"{self.benchmark.lower()}_k{self.lut_inputs}"
            f"_t{self.mccs_per_tile}_{self.library_hash}{suffix}.json"
        )


def program_key(
    benchmark: str,
    *,
    lut_inputs: int = 5,
    mccs_per_tile: int = 1,
    optimizer: str = "",
) -> ProgramKey:
    return ProgramKey(
        benchmark.upper(), lut_inputs, mccs_per_tile, library_version(),
        optimizer,
    )


@dataclass
class CompiledProgram:
    """Everything admission and execution need, ready to inject."""

    benchmark: str
    lut_inputs: int
    mccs_per_tile: int
    netlist: Netlist                    # technology-mapped
    schedule: FoldingSchedule
    netlist_report: AnalysisReport
    schedule_report: AnalysisReport
    library_hash: str
    dataflow_report: AnalysisReport = field(
        default_factory=lambda: AnalysisReport(artifact="dataflow:?")
    )
    certificate: Optional[AnalysisCertificate] = None
    #: Optimizer token that produced this entry ("" = plain heuristic).
    optimizer: str = ""
    #: Audit record from the optimization pass (fold counts, bound gap,
    #: timings, rejection reasons) — None for heuristic compiles.
    opt_stats: Optional[Dict] = None
    #: The compiled-plan artifact
    #: (:func:`repro.freac.specialize.plan_artifact`): the plan's
    #: content digest + shape for supported netlists, or
    #: ``{"supported": False, "reason": ...}``.  Built by
    #: :func:`compile_program` (which also caches the plan on the
    #: schedule, so the first wave runs it for free) and verified
    #: against a deterministic rebuild on every disk load.
    specialized: Optional[Dict] = None
    #: Runtime-only: this process verified the certificate (or issued
    #: it fresh), so repeat warm hits skip even the digest hash.
    cert_verified: bool = field(default=False, compare=False)

    @property
    def key(self) -> ProgramKey:
        return ProgramKey(
            self.benchmark, self.lut_inputs, self.mccs_per_tile,
            self.library_hash, self.optimizer,
        )

    @property
    def ok(self) -> bool:
        """True when no lint report has error-severity findings."""
        return (self.netlist_report.ok and self.schedule_report.ok
                and self.dataflow_report.ok)

    @property
    def reports(self) -> Tuple[AnalysisReport, ...]:
        return (
            self.netlist_report, self.schedule_report, self.dataflow_report
        )

    def admission_report(self) -> AnalysisReport:
        """All lint reports merged, for structured rejections."""
        merged = AnalysisReport(artifact=f"program:{self.benchmark}")
        rules: list = []
        for report in self.reports:
            merged.extend(report.diagnostics)
            rules.extend(report.rules_run)
        merged.rules_run = list(dict.fromkeys(rules))
        return merged

    def relint(self, *, digest: str = "") -> None:
        """Re-run the full lint pass and issue a fresh certificate.

        The slow path behind a failed certificate verification: the
        artifact (or the rule pack) changed since the stored verdict,
        so nothing short of a full re-analysis is trustworthy.
        """
        self.netlist_report = analyze_netlist(
            self.netlist, lut_inputs=self.lut_inputs
        )
        self.schedule_report = analyze_schedule(self.schedule)
        self.dataflow_report = analyze_dataflow(self.schedule)
        self.certificate = issue_certificate(
            self.schedule, self.reports, digest=digest
        )
        self.cert_verified = True

    def to_accelerator(self) -> AcceleratorProgram:
        """An injectable :class:`AcceleratorProgram` (schedule pre-set)."""
        program = AcceleratorProgram(
            self.benchmark, self.netlist, self.lut_inputs
        )
        program.schedules[self.mccs_per_tile] = self.schedule
        return program

    # -- (de)serialisation — the on-disk cache layer --------------------

    def to_dict(self) -> Dict:
        data = {
            "version": DISK_FORMAT_VERSION,
            "benchmark": self.benchmark,
            "lut_inputs": self.lut_inputs,
            "mccs_per_tile": self.mccs_per_tile,
            "library_hash": self.library_hash,
            # The schedule dict embeds the mapped netlist.
            "schedule": schedule_to_dict(self.schedule),
            "netlist_report": self.netlist_report.to_dict(),
            "schedule_report": self.schedule_report.to_dict(),
            "dataflow_report": self.dataflow_report.to_dict(),
            "optimizer": self.optimizer,
            "specialized": self.specialized,
        }
        if self.opt_stats is not None:
            data["opt_stats"] = self.opt_stats
        if self.certificate is not None:
            data["certificate"] = self.certificate.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "CompiledProgram":
        if data.get("version") != DISK_FORMAT_VERSION:
            raise ValueError(
                f"unsupported cache entry version {data.get('version')!r}"
            )
        schedule = schedule_from_dict(data["schedule"])
        # The specialized plan is a pure function of the schedule, so
        # the artifact is *verified*, not trusted: rebuild it and
        # compare content digests.  A mismatch means the entry is torn
        # or stale; the caller quarantines it (one recompile, no crash).
        stored = data.get("specialized")
        if stored is None:
            raise ValueError("cache entry lacks a specialized plan artifact")
        rebuilt = plan_artifact(schedule)
        if rebuilt != stored:
            raise ValueError(
                "specialized plan artifact does not match its schedule: "
                f"stored {stored.get('digest')!r}, "
                f"rebuilt {rebuilt.get('digest')!r}"
            )
        certificate = data.get("certificate")
        return cls(
            benchmark=data["benchmark"],
            lut_inputs=data["lut_inputs"],
            mccs_per_tile=data["mccs_per_tile"],
            netlist=schedule.netlist,
            schedule=schedule,
            netlist_report=AnalysisReport.from_dict(data["netlist_report"]),
            schedule_report=AnalysisReport.from_dict(data["schedule_report"]),
            library_hash=data["library_hash"],
            dataflow_report=AnalysisReport.from_dict(data["dataflow_report"]),
            certificate=(
                None if certificate is None
                else AnalysisCertificate.from_dict(certificate)
            ),
            optimizer=data.get("optimizer", ""),
            opt_stats=data.get("opt_stats"),
            specialized=stored,
        )


def compile_program(
    benchmark: str,
    *,
    lut_inputs: int = 5,
    mccs_per_tile: int = 1,
    optimizer: Optional[OptimizerConfig] = None,
) -> CompiledProgram:
    """Run the full synthesis/tech-map/fold pipeline plus lint.

    Unlike :func:`repro.freac.runner.build_program` this never raises
    on findings: the reports ride along so the serving layer can turn
    them into a structured admission rejection.

    With an enabled ``optimizer`` config, the heuristic schedule seeds
    :func:`repro.optimizer.optimize_schedule` and the (never-worse)
    result is what gets linted, certified, and cached — the expensive
    search runs once per content address, then every warm hit serves
    the shorter fold loop for free.
    """
    name = benchmark.upper()
    netlist = mapped_pe(name, lut_inputs)
    resources = TileResources(mccs=mccs_per_tile, lut_inputs=lut_inputs)
    schedule = list_schedule(netlist, resources)
    token = ""
    opt_stats: Optional[Dict] = None
    if optimizer is not None and optimizer.enabled:
        outcome = optimize_schedule(
            netlist, resources, config=optimizer, heuristic=schedule
        )
        schedule = outcome.schedule
        netlist = schedule.netlist    # the remap may re-cover it
        token = optimizer.token()
        opt_stats = outcome.stats_dict()
    program = CompiledProgram(
        benchmark=name,
        lut_inputs=lut_inputs,
        mccs_per_tile=mccs_per_tile,
        netlist=netlist,
        schedule=schedule,
        netlist_report=analyze_netlist(netlist, lut_inputs=lut_inputs),
        schedule_report=analyze_schedule(schedule),
        library_hash=library_version(),
        dataflow_report=analyze_dataflow(schedule),
        optimizer=token,
        opt_stats=opt_stats,
        specialized=plan_artifact(schedule),
    )
    program.certificate = issue_certificate(program.schedule, program.reports)
    program.cert_verified = True
    return program


class ProgramCache:
    """In-memory LRU over :class:`CompiledProgram`, write-through disk.

    ``capacity`` bounds the in-memory entries; with a ``directory``,
    entries are also persisted as JSON (one file per key, named by the
    content address) and evicted entries remain loadable from disk.
    Counters: ``hits`` (memory + disk), ``disk_hits`` (subset),
    ``misses`` (compiled from scratch), ``evictions``,
    ``quarantined`` (corrupt disk files set aside), ``cert_hits`` /
    ``cert_misses`` (warm-hit certificate verifications that let the
    cache skip — or forced it to re-run — the full lint pass).

    Thread-safe: one re-entrant lock guards the LRU, the counters, and
    the disk layer, so concurrent submitters share one cache without
    torn state.  Compilation happens under the lock too — a cold key
    is compiled exactly once even when many threads race for it (the
    losers block and then hit), at the cost of serialising concurrent
    *different*-key cold compiles.

    Crash safety: disk writes go to a ``.tmp`` sibling first and are
    published with an atomic ``os.replace``, so a reader (or the next
    process) can never observe a torn entry.  A malformed or
    key-mismatched file found at load time is quarantined — renamed to
    a ``.corrupt`` sibling — and counted, so one bad file degrades to
    a single recompile instead of a crash on every lookup.

    Multi-process use: the in-memory LRU and its lock are per-process,
    so two *processes* pointed at the same directory would race on the
    ``.tmp`` sibling (two writers truncating one temp file can publish
    a torn entry through the atomic rename).  ``namespace`` gives each
    process its own subdirectory under the shared base — the sharded
    gateway passes ``shard<N>`` so shard-local programs stay
    shard-local on disk too — and the temp sibling is additionally
    suffixed with the writer's pid, so even a mis-configured shared
    directory degrades to last-writer-wins on whole entries, never a
    torn file.
    """

    _GUARDED_BY_LOCK = (
        "_entries", "hits", "disk_hits", "misses", "evictions",
        "quarantined", "cert_hits", "cert_misses", "opt_rejected",
    )

    def __init__(
        self,
        capacity: int = 16,
        directory: Union[str, Path, None] = None,
        compiler: Callable[..., CompiledProgram] = compile_program,
        telemetry: Optional[Telemetry] = None,
        namespace: Optional[str] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least one entry")
        if namespace is not None and (
            not namespace or namespace != Path(namespace).name
        ):
            raise ValueError(
                f"cache namespace {namespace!r} must be a bare directory "
                "name (no separators)"
            )
        self.capacity = capacity
        self.namespace = namespace
        base = Path(directory) if directory is not None else None
        if base is not None and namespace is not None:
            base = base / namespace
        self.directory = base
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._compiler = compiler
        self._telemetry = resolve(telemetry)
        self._entries: "OrderedDict[ProgramKey, CompiledProgram]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.evictions = 0
        self.quarantined = 0
        self.cert_hits = 0
        self.cert_misses = 0
        self.opt_rejected = 0

    # -- core mapping ---------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: ProgramKey) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def put(self, program: CompiledProgram) -> None:
        key = program.key
        with self._lock:
            self._entries[key] = program
            self._entries.move_to_end(key)
            if self.directory is not None:
                path = self.directory / key.filename
                if not path.exists():
                    self._write_atomic(path, program)
            while len(self._entries) > self.capacity:
                evicted_key, _ = self._entries.popitem(last=False)
                self.evictions += 1
                logger.info("program cache evicted %s", evicted_key)

    def _write_atomic(self, path: Path, program: CompiledProgram) -> None:
        """Publish ``path`` via tmp-sibling + ``os.replace``.

        A crash (or a concurrent writer racing on the same key) can
        leave a stray ``.tmp`` file, never a torn ``.json`` — readers
        only ever see a complete entry or none at all.  The temp
        sibling carries the writer's pid, so two *processes* racing on
        one key never truncate each other's in-progress write.
        """
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(program.to_dict()))
            os.replace(tmp, path)
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise

    def get(self, key: ProgramKey) -> Optional[CompiledProgram]:
        """Look up without compiling; counts a hit or a miss."""
        with self._lock:
            entry = self._load(key)
            if entry is None:
                self.misses += 1
            return entry

    def get_or_compile(
        self,
        benchmark: str,
        *,
        lut_inputs: int = 5,
        mccs_per_tile: int = 1,
        optimizer: Optional[OptimizerConfig] = None,
    ) -> CompiledProgram:
        """The admission path: cached program, or compile-and-insert.

        Raises ``KeyError`` for a benchmark the PE library does not
        know (before counting a miss — unknown names are a caller
        error, not cache traffic).
        """
        return self.lookup(
            benchmark, lut_inputs=lut_inputs, mccs_per_tile=mccs_per_tile,
            optimizer=optimizer,
        )[0]

    def lookup(
        self,
        benchmark: str,
        *,
        lut_inputs: int = 5,
        mccs_per_tile: int = 1,
        optimizer: Optional[OptimizerConfig] = None,
    ) -> Tuple[CompiledProgram, bool]:
        """:meth:`get_or_compile`, plus whether this call was a hit.

        The serving layer wants hit/miss per submission; deriving it by
        diffing the shared counters is racy once submitters run
        concurrently (another thread's hit inflates the delta).

        ``optimizer`` (an enabled :class:`OptimizerConfig`) routes a
        miss through the optimizing compile; its token lands in the
        key, so heuristic and optimized entries never alias.
        """
        token = optimizer.token() if optimizer is not None else ""
        key = program_key(
            benchmark, lut_inputs=lut_inputs, mccs_per_tile=mccs_per_tile,
            optimizer=token,
        )
        with self._lock:
            if key.benchmark not in pe_names() and key not in self._entries:
                raise KeyError(
                    f"unknown benchmark {benchmark!r}; "
                    f"available: {', '.join(pe_names())}"
                )
            entry = self._load(key)
            if entry is not None:
                return entry, True
            self.misses += 1
            kwargs: Dict = dict(
                lut_inputs=lut_inputs, mccs_per_tile=mccs_per_tile
            )
            if optimizer is not None:
                # Only the optimizing path passes the kwarg, so custom
                # test compilers with the old signature keep working.
                kwargs["optimizer"] = optimizer
            program = self._compiler(key.benchmark, **kwargs)
            if program.opt_stats and program.opt_stats.get("rejected"):
                self.opt_rejected += 1
            self.put(program)
            return program, False

    def clear(self, *, disk: bool = False) -> None:
        """Drop every in-memory entry (and on-disk files if asked)."""
        with self._lock:
            self._entries.clear()
            if disk and self.directory is not None:
                for path in self.directory.glob("*.json"):
                    path.unlink()

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "quarantined": self.quarantined,
                "cert_hits": self.cert_hits,
                "cert_misses": self.cert_misses,
                "opt_rejected": self.opt_rejected,
                "hit_rate": self.hit_rate,
            }

    # -- lookup layers --------------------------------------------------

    def _load(self, key: ProgramKey) -> Optional[CompiledProgram]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                self._ensure_verified(entry)
                return entry
            entry = self._load_from_disk(key)
            if entry is not None:
                self.hits += 1
                self.disk_hits += 1
                self._ensure_verified(entry)
                self.put(entry)
                return entry
            return None

    def _ensure_verified(self, entry: CompiledProgram) -> None:
        """Check the entry's analysis certificate once per process.

        The caller must hold ``self._lock``.

        A verified entry (this process issued or already checked its
        certificate) passes for free.  Otherwise one digest comparison
        decides: a valid certificate means the stored reports are
        provably current (``cert_hits``); a stale or missing one means
        the artifact or the rule pack changed, so the entry is
        re-linted, re-certified, and rewritten to disk
        (``cert_misses``).
        """
        if entry.cert_verified:
            return
        digest = artifact_digest(entry.schedule)
        if entry.certificate is not None and verify_certificate(
            entry.certificate, entry.schedule, digest=digest
        ):
            entry.cert_verified = True
            self.cert_hits += 1
            outcome = "hit"
        else:
            entry.relint(digest=digest)
            self.cert_misses += 1
            outcome = "miss"
            if self.directory is not None:
                self._write_atomic(
                    self.directory / entry.key.filename, entry
                )
        if self._telemetry.enabled:
            self._telemetry.counter(
                "service.cert_checks",
                "certificate verifications on warm program-cache hits",
            ).inc(outcome=outcome)

    def _load_from_disk(self, key: ProgramKey) -> Optional[CompiledProgram]:
        """Read and validate one on-disk entry.

        The caller must hold ``self._lock``.
        """
        if self.directory is None:
            return None
        path = self.directory / key.filename
        if not path.exists():
            return None
        try:
            entry = CompiledProgram.from_dict(json.loads(path.read_text()))
        except OSError as exc:
            # Unreadable (permissions, vanished mid-read): a plain miss.
            logger.warning("cannot read cache file %s: %r", path, exc)
            return None
        except (ValueError, KeyError) as exc:
            # Malformed content (torn write from an old version of this
            # code, disk corruption, wrong schema): quarantine it so it
            # costs one recompile, not a warning on every future lookup.
            self._quarantine(path, repr(exc))
            return None
        if entry.key != key:
            self._quarantine(path, "entry does not match its key")
            return None
        return entry

    def _quarantine(self, path: Path, reason: str) -> None:
        """Set a bad cache file aside as ``<name>.corrupt`` (a miss).

        The caller must hold ``self._lock``.
        """
        target = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, target)
            moved = True
        except OSError:
            moved = False
        self.quarantined += 1
        logger.warning(
            "quarantined cache file %s -> %s (%s)%s",
            path, target.name, reason, "" if moved else " [rename failed]",
        )
