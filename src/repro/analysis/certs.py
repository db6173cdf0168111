"""Content-addressed analysis certificates.

A certificate is a small, verifiable record that a specific artifact
(identified by a content digest) was analysed by a specific rule pack
(identified by a fingerprint over every rule's identity) with a known
verdict.  The service stores one alongside each compiled program so a
warm admission can *prove* the stored verdict still applies — same
artifact bytes, same rules — and skip the full lint pass, instead of
either trusting stale reports blindly or re-linting every submit.

Verification cost is one canonical-JSON serialisation plus a sha256,
which is far cheaper than running the ~40-rule netlist + schedule +
dataflow packs.

A certificate goes stale when either side changes: recompiling the
program changes the digest, adding/removing/re-tiering a rule changes
the rulepack fingerprint.  Both invalidate silently into a cache miss
— the admission path then re-analyses and issues a fresh certificate.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Sequence

from .core import AnalysisReport, registry

CERT_VERSION = 1

#: The artifact kinds a compiled-program certificate covers.
PROGRAM_RULEPACK = ("dataflow", "netlist", "schedule")


def rulepack_fingerprint(kinds: Sequence[str] = PROGRAM_RULEPACK) -> str:
    """Fingerprint of every registered rule for ``kinds``.

    Hashes each rule's id, artifact, default severity, and title, in
    id order — so adding, removing, or re-tiering any rule in the
    covered packs changes the fingerprint and invalidates outstanding
    certificates.
    """
    parts = []
    for kind in sorted(set(kinds)):
        for rule_obj in registry.for_artifact(kind):
            parts.append(
                f"{rule_obj.rule_id}|{rule_obj.artifact}"
                f"|{rule_obj.severity.value}|{rule_obj.title}"
            )
    blob = "\n".join(parts).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def artifact_digest(schedule: Any) -> str:
    """Content digest of a folding schedule (netlist included).

    Canonical-JSON over :func:`~repro.folding.io.schedule_to_dict`,
    which embeds the netlist — one digest covers everything the
    netlist, schedule, and dataflow packs read.
    """
    from ..folding.io import schedule_to_dict

    blob = json.dumps(
        schedule_to_dict(schedule), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class AnalysisCertificate:
    """One verdict bound to one artifact digest and one rulepack."""

    digest: str          # artifact_digest() of the schedule
    rulepack: str        # rulepack_fingerprint() at issue time
    ok: bool             # no error-severity diagnostics
    errors: int
    warnings: int
    infos: int
    version: int = CERT_VERSION

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "digest": self.digest,
            "rulepack": self.rulepack,
            "ok": self.ok,
            "errors": self.errors,
            "warnings": self.warnings,
            "infos": self.infos,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AnalysisCertificate":
        return cls(
            digest=data["digest"],
            rulepack=data["rulepack"],
            ok=bool(data["ok"]),
            errors=int(data["errors"]),
            warnings=int(data["warnings"]),
            infos=int(data["infos"]),
            version=int(data.get("version", 0)),
        )


def issue_certificate(
    schedule: Any,
    reports: Iterable[AnalysisReport],
    *,
    digest: str = "",
) -> AnalysisCertificate:
    """Certify ``schedule`` given the reports of a full lint pass.

    ``digest`` lets a caller that already computed the artifact digest
    avoid serialising the schedule twice.
    """
    errors = warnings = infos = 0
    ok = True
    for report in reports:
        summary = report.summary()
        errors += summary["errors"]
        warnings += summary["warnings"]
        infos += summary["infos"]
        ok = ok and report.ok
    return AnalysisCertificate(
        digest=digest or artifact_digest(schedule),
        rulepack=rulepack_fingerprint(),
        ok=ok,
        errors=errors,
        warnings=warnings,
        infos=infos,
    )


def verify_certificate(
    certificate: AnalysisCertificate,
    schedule: Any,
    *,
    digest: str = "",
) -> bool:
    """Does ``certificate`` still bind to ``schedule`` under today's rules?

    False when the certificate predates a format bump, the rule pack
    changed since issue, or the schedule bytes differ from what was
    certified.  False never means "bad program" — only "re-analyse".
    """
    if certificate.version != CERT_VERSION:
        return False
    if certificate.rulepack != rulepack_fingerprint():
        return False
    return certificate.digest == (digest or artifact_digest(schedule))
