"""Android permission model and the PScout-style API-permission map.

The paper's over-privilege analysis (Section 6.3) uses PScout's mapping
from API calls / Intents / Content Providers to the permissions they
require (32,445 permission-related APIs for Android 5.1.1).  Here the
platform defines the ground-truth specification at reduced width: each
permission guards a disjoint slice of the feature-id space.  The analysis
side (:mod:`repro.analysis.permissions`) consumes this spec exactly the
way the paper consumed the published PScout dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Tuple

import numpy as np

from repro.apk.models import (
    API_FEATURE_RANGE,
    INTENT_FEATURE_RANGE,
    PROVIDER_FEATURE_RANGE,
)
from repro.util.rng import stable_hash64

__all__ = [
    "ALL_PERMISSIONS",
    "DANGEROUS_PERMISSIONS",
    "PermissionSpec",
    "platform_spec",
]

#: Android permissions modeled in the simulation.  Dangerous permissions
#: follow Google's protection-level classification.
DANGEROUS_PERMISSIONS: Tuple[str, ...] = (
    "READ_PHONE_STATE",
    "ACCESS_COARSE_LOCATION",
    "ACCESS_FINE_LOCATION",
    "CAMERA",
    "RECORD_AUDIO",
    "READ_CONTACTS",
    "WRITE_CONTACTS",
    "READ_SMS",
    "SEND_SMS",
    "RECEIVE_SMS",
    "READ_CALL_LOG",
    "WRITE_CALL_LOG",
    "CALL_PHONE",
    "READ_EXTERNAL_STORAGE",
    "WRITE_EXTERNAL_STORAGE",
    "READ_CALENDAR",
    "WRITE_CALENDAR",
    "BODY_SENSORS",
    "GET_ACCOUNTS",
    "PROCESS_OUTGOING_CALLS",
)

NORMAL_PERMISSIONS: Tuple[str, ...] = (
    "INTERNET",
    "ACCESS_NETWORK_STATE",
    "ACCESS_WIFI_STATE",
    "BLUETOOTH",
    "BLUETOOTH_ADMIN",
    "VIBRATE",
    "WAKE_LOCK",
    "NFC",
    "SET_WALLPAPER",
    "RECEIVE_BOOT_COMPLETED",
    "CHANGE_WIFI_STATE",
    "FLASHLIGHT",
    "EXPAND_STATUS_BAR",
    "GET_PACKAGE_SIZE",
    "KILL_BACKGROUND_PROCESSES",
    "REORDER_TASKS",
    "SYSTEM_ALERT_WINDOW",
    "WRITE_SETTINGS",
    "DOWNLOAD_WITHOUT_NOTIFICATION",
    "FOREGROUND_SERVICE",
)

ALL_PERMISSIONS: Tuple[str, ...] = DANGEROUS_PERMISSIONS + NORMAL_PERMISSIONS


@dataclass(frozen=True)
class PermissionSpec:
    """The platform's permission specification.

    ``feature_permission`` maps each guarded feature id to the permission
    it requires; ``permission_features`` is the inverse, grouped.
    """

    feature_permission: Mapping[int, str]
    permission_features: Mapping[str, FrozenSet[int]]
    #: ``permission_features`` with each set sorted once, for codegen draws.
    sorted_features: Mapping[str, Tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "sorted_features", {
            perm: tuple(sorted(fids))
            for perm, fids in self.permission_features.items()
        })

    def permissions_for(self, feature_ids) -> FrozenSet[str]:
        """Set of permissions required by the given feature ids."""
        # Permission names are non-empty, so ``filter(None, ...)`` drops
        # exactly the unguarded features.
        return frozenset(filter(None, map(self.feature_permission.get, feature_ids)))

    def sample_feature(self, permission: str, rng: np.random.Generator) -> int:
        """Pick one feature id guarded by ``permission`` (for codegen)."""
        features = self.sorted_features[permission]
        return features[int(rng.integers(0, len(features)))]

    def is_dangerous(self, permission: str) -> bool:
        return permission in DANGEROUS_PERMISSIONS


def _spec_builder() -> PermissionSpec:
    """Build the deterministic platform specification.

    Each permission guards ~40 API features plus a few Intent and
    Content-Provider features, mirroring PScout's structure (APIs,
    permission-related Intents, Content Provider URIs).  Assignments are
    deterministic in the permission name, independent of any study seed —
    the platform does not change between studies.
    """
    rng = np.random.default_rng(stable_hash64("android-platform-spec") % 2**63)
    feature_permission: Dict[int, str] = {}
    permission_features: Dict[str, set] = {p: set() for p in ALL_PERMISSIONS}

    api_lo, api_hi = API_FEATURE_RANGE
    # Reserve the lower half of the API space as permission-free; guard
    # the upper half.  This keeps plenty of unguarded APIs for generic
    # app/library code.
    guarded_lo = api_lo + (api_hi - api_lo) // 2
    guarded_apis = rng.permutation(np.arange(guarded_lo, api_hi))
    per_perm = len(guarded_apis) // len(ALL_PERMISSIONS)
    for idx, perm in enumerate(ALL_PERMISSIONS):
        chunk = guarded_apis[idx * per_perm : (idx + 1) * per_perm]
        for fid in chunk:
            feature_permission[int(fid)] = perm
            permission_features[perm].add(int(fid))

    # A few guarded Intents and Providers per dangerous permission.
    intent_lo, intent_hi = INTENT_FEATURE_RANGE
    provider_lo, provider_hi = PROVIDER_FEATURE_RANGE
    intents = rng.permutation(np.arange(intent_lo, intent_hi))
    providers = rng.permutation(np.arange(provider_lo, provider_hi))
    for idx, perm in enumerate(DANGEROUS_PERMISSIONS):
        for fid in (intents[2 * idx], intents[2 * idx + 1], providers[idx]):
            feature_permission[int(fid)] = perm
            permission_features[perm].add(int(fid))

    return PermissionSpec(
        feature_permission=feature_permission,
        permission_features={p: frozenset(s) for p, s in permission_features.items()},
    )


_SPEC: PermissionSpec = None  # type: ignore[assignment]


def platform_spec() -> PermissionSpec:
    """The singleton platform permission specification."""
    global _SPEC
    if _SPEC is None:
        _SPEC = _spec_builder()
    return _SPEC
