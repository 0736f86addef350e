"""App identity: MD5 versus (package, version, signature) (Section 5.3).

Two APKs of the same app version from different stores often differ in
MD5 while being functionally identical — store channel files (e.g.
``META-INF/kgchannel``) and store-forced repacking (360 Jiagubao) change
the archive bytes.  This module quantifies those cases and validates the
paper's conclusion: (package name, version code, developer signature) is
a sufficient identity key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.crawler.snapshot import Snapshot

__all__ = ["IdentityStudy", "study_identity"]

IdentityKey = Tuple[str, int, str]  # (package, version_code, signer)


@dataclass
class IdentityStudy:
    """Counters for the Section 5.3 comparison."""

    identity_groups: int  # (package, version, signer) groups seen in >1 store
    md5_divergent_groups: int  # ... whose members do not share one MD5
    md5_divergent_apps: int  # record count inside divergent groups
    channel_only_groups: int  # divergence explained by META-INF channel files
    packer_groups: int  # divergence explained by store-forced packing
    examples: List[Dict[str, object]]

    @property
    def divergence_share(self) -> float:
        if self.identity_groups == 0:
            return 0.0
        return self.md5_divergent_groups / self.identity_groups

    @property
    def explained_share(self) -> float:
        """Share of divergent groups fully explained by channel files or
        packing — the paper's conclusion that the identity key is sound."""
        if self.md5_divergent_groups == 0:
            return 1.0
        return (
            self.channel_only_groups + self.packer_groups
        ) / self.md5_divergent_groups


def study_identity(snapshot: Snapshot, max_examples: int = 10) -> IdentityStudy:
    # The key, the packer and the executable-content digest
    # (``dex_digest``) are row scalars, so the study opens no blob.
    groups: Dict[IdentityKey, List] = {}
    for record in snapshot:
        apk = record.apk
        if apk is None:
            continue
        key = (record.package, apk.version_code, apk.signer_fingerprint)
        groups.setdefault(key, []).append(record)

    identity_groups = 0
    divergent = 0
    divergent_apps = 0
    channel_only = 0
    packer = 0
    examples: List[Dict[str, object]] = []

    for key, records in groups.items():
        if len(records) < 2:
            continue
        identity_groups += 1
        by_md5 = {r.apk.md5: r.apk for r in records}
        if len(by_md5) == 1:
            continue
        divergent += 1
        divergent_apps += len(records)

        packed = {r.apk.obfuscated_by for r in records}
        if len(packed) > 1 or (packed and next(iter(packed)) is not None):
            packer += 1
            kind = "store packing"
        else:
            dex = {apk.dex_digest for apk in by_md5.values()}
            if len(dex) == 1:
                channel_only += 1
                kind = "channel file"
            else:
                kind = "unexplained"
        if len(examples) < max_examples:
            examples.append(
                {
                    "package": key[0],
                    "version_code": key[1],
                    "markets": sorted(r.market_id for r in records),
                    "md5_count": len(by_md5),
                    "kind": kind,
                }
            )

    return IdentityStudy(
        identity_groups=identity_groups,
        md5_divergent_groups=divergent,
        md5_divergent_apps=divergent_apps,
        channel_only_groups=channel_only,
        packer_groups=packer,
        examples=examples,
    )
