"""The population specification: paper-exact joint distribution.

``build_default_spec()`` produces ~1114 server definitions grouped
into archetype rows.  Every row pins all security-relevant attributes;
``PopulationSpec.validate()`` recomputes each marginal the paper
publishes and raises on any mismatch, so the spec cannot silently
drift from the paper.

The derivation of the numbers is documented in DESIGN.md §5 and in
the comments below.  One deliberate extension beyond Table 2: the
paper's printed rows sum to 1111 of 1114 hosts ("unused combinations
... are omitted"); we add a 3-host {anonymous, certificate} combo in
the authentication-rejected column so column totals (541/80) match.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.deployments.profiles import (
    CERT_CLASSES,
    POLICY_GROUPS,
)
from repro.secure.policies import POLICY_NONE, policy_by_label
from repro.uabin.enums import MessageSecurityMode, UserTokenType

# Token combo shorthands (paper Table 2 rows).
A = (UserTokenType.ANONYMOUS,)
C = (UserTokenType.USERNAME,)
AC = (UserTokenType.ANONYMOUS, UserTokenType.USERNAME)
CC = (UserTokenType.USERNAME, UserTokenType.CERTIFICATE)
ACC = (
    UserTokenType.ANONYMOUS,
    UserTokenType.USERNAME,
    UserTokenType.CERTIFICATE,
)
CCT = (
    UserTokenType.USERNAME,
    UserTokenType.CERTIFICATE,
    UserTokenType.ISSUED_TOKEN,
)
ACCT = (
    UserTokenType.ANONYMOUS,
    UserTokenType.USERNAME,
    UserTokenType.CERTIFICATE,
    UserTokenType.ISSUED_TOKEN,
)
# The 3 omitted-row hosts (see module docstring): certificate-only.
Crt = (UserTokenType.CERTIFICATE,)

# Outcomes (Table 2 columns).
PROD = "accessible-production"
TEST = "accessible-test"
UNCL = "accessible-unclassified"
AUTH = "rejected-authentication"
SC = "rejected-secure-channel"

ACCESSIBLE_OUTCOMES = (PROD, TEST, UNCL)


@dataclass(frozen=True)
class SpecRow:
    """One archetype: ``count`` identical hosts."""

    row_id: str
    count: int
    policy_group: str
    mode_set: tuple[MessageSecurityMode, ...]
    token_combo: tuple[UserTokenType, ...]
    outcome: str
    cert_class: str
    manufacturer: str
    reuse_group: str | None = None
    # The one Table-2 host that advertises None endpoints but offers
    # anonymous only on its secure endpoints (making a certificate
    # rejection block access despite a usable None channel).
    anon_on_secure_only: bool = False
    # Hostile device-zoo personality (None: well-behaved).  Named rows
    # override certificates, endpoints, or the connection factory —
    # see :mod:`repro.deployments.personalities`.
    personality: str | None = None

    def __post_init__(self):
        if self.policy_group not in POLICY_GROUPS:
            raise ValueError(f"unknown policy group: {self.policy_group}")
        if self.cert_class not in CERT_CLASSES:
            raise ValueError(f"unknown certificate class: {self.cert_class}")
        if self.count <= 0:
            raise ValueError(f"row {self.row_id} has count {self.count}")
        if self.personality is not None:
            # Imported lazily: the personality module builds SpecRows
            # itself, so a module-level import would be circular.
            from repro.deployments.personalities import PERSONALITIES

            if self.personality not in PERSONALITIES:
                raise ValueError(
                    f"unknown personality: {self.personality}"
                )

    @property
    def accessible(self) -> bool:
        return self.outcome in ACCESSIBLE_OUTCOMES

    @property
    def offers_anonymous(self) -> bool:
        return UserTokenType.ANONYMOUS in self.token_combo

    def best_advertised_pair(self):
        """Strongest secure ``(policy, mode)`` this row advertises.

        This is, by construction, the pair the scanner's secure channel
        targets: the deployment generator builds one endpoint
        per (mode × non-None policy) cross product, so the strongest
        policy always pairs with the strongest secure mode.  Returns
        None for rows advertising only the None policy or only the
        None mode.
        """
        policies = [
            p
            for p in POLICY_GROUPS[self.policy_group].policies
            if p is not POLICY_NONE
        ]
        modes = [m for m in self.mode_set if m != MessageSecurityMode.NONE]
        if not policies or not modes:
            return None
        return (
            max(policies, key=lambda p: p.security_rank),
            max(modes, key=lambda m: m.security_rank),
        )

    def expected_negotiation(self):
        """Ground truth for the scanner's negotiation against this row.

        Returns ``(policy_uri, mode, error)`` mirroring the sparse
        ``negotiated_*``/``negotiation_error`` record fields: all three
        None for None-only rows, an error name for strict rows that
        reject the scanner's self-signed certificate, and the
        completed pair otherwise.
        """
        pair = self.best_advertised_pair()
        if pair is None:
            return (None, None, None)
        if self.outcome == SC:
            return (None, None, "BadSecurityChecksFailed")
        policy, mode = pair
        return (policy.uri, int(mode), None)


N = MessageSecurityMode.NONE
S = MessageSecurityMode.SIGN
SE = MessageSecurityMode.SIGN_AND_ENCRYPT

M_N = (N,)
M_NSE = (N, SE)
M_NSSE = (N, S, SE)
M_SE = (SE,)
M_SSE = (S, SE)
M_S = (S,)


def _rows() -> list[SpecRow]:
    """The full archetype table (derivation: DESIGN.md §5)."""
    rows: list[SpecRow] = []

    def add(row_id, count, group, modes, tokens, outcome, cert, manu,
            reuse=None, anon_secure_only=False):
        rows.append(
            SpecRow(
                row_id=row_id,
                count=count,
                policy_group=group,
                mode_set=modes,
                token_combo=tokens,
                outcome=outcome,
                cert_class=cert,
                manufacturer=manu,
                reuse_group=reuse,
                anon_on_secure_only=anon_secure_only,
            )
        )

    # --- PA: {None} only (270) — the 24 % with no security at all ----------
    add("PA-acc-prod-r5", 3, "PA", M_N, A, PROD, "sha1-2048", "Beckhoff", "R5")
    add("PA-acc-prod-r8", 4, "PA", M_N, A, PROD, "sha1-2048", "Bachmann", "R8")
    add("PA-acc-prod", 53, "PA", M_N, A, PROD, "sha1-2048", "Bachmann")
    add("PA-acc-test", 8, "PA", M_N, A, TEST, "sha1-2048", "other")
    add("PA-acc-uncl", 5, "PA", M_N, A, UNCL, "sha256-2048", "other")
    add("PA-acc-ac-r7", 3, "PA", M_N, AC, PROD, "sha1-2048", "other", "R7")
    add("PA-acc-ac", 42, "PA", M_N, AC, PROD, "sha1-2048", "Beckhoff")
    add("PA-auth-anon", 9, "PA", M_N, A, AUTH, "sha1-1024", "ControlCorp")
    add("PA-auth-ac", 20, "PA", M_N, AC, AUTH, "sha1-1024", "ControlCorp")
    add("PA-auth-c-r6", 3, "PA", M_N, C, AUTH, "sha1-2048", "Wago", "R6")
    add("PA-auth-c-r9", 4, "PA", M_N, C, AUTH, "sha1-2048", "Bachmann", "R9")
    add("PA-auth-c-cc", 31, "PA", M_N, C, AUTH, "sha1-2048", "ControlCorp")
    add("PA-auth-c-ba", 39, "PA", M_N, C, AUTH, "sha1-2048", "Bachmann")
    add("PA-auth-c-wg", 27, "PA", M_N, C, AUTH, "sha1-2048", "Wago")
    add("PA-auth-c-ot", 10, "PA", M_N, C, AUTH, "sha1-2048", "other")
    add("PA-auth-c-wg2", 1, "PA", M_N, C, AUTH, "sha1-2048", "Wago")
    add("PA-auth-c-bk2", 3, "PA", M_N, C, AUTH, "sha1-2048", "Beckhoff")
    add("PA-auth-c-bk", 5, "PA", M_N, C, AUTH, "sha256-2048", "Beckhoff")

    # --- P1: {N, D1} (24), most-secure D1; carries the 7 MD5 certs ---------
    add("P1-md5", 7, "P1", M_NSE, AC, PROD, "md5-1024", "Beckhoff")
    add("P1-sha1", 17, "P1", M_NSE, AC, PROD, "sha1-2048", "Wago")

    # --- P2: {N, D1, D2} (243), most-secure D2 ------------------------------
    # AutomataWerk's reuse certificates R1/R2/R3 live here and in P4.
    add("P2-sc-c", 21, "P2", M_NSE, C, SC, "sha1-2048", "AutomataWerk", "R1")
    add("P2-sc-cc", 7, "P2", M_NSE, CC, SC, "sha1-2048", "AutomataWerk", "R1")
    add("P2-auth-r1a", 117, "P2", M_NSSE, C, AUTH, "sha1-2048",
        "AutomataWerk", "R1")
    add("P2-auth-r1b", 28, "P2", M_NSE, C, AUTH, "sha1-2048",
        "AutomataWerk", "R1")
    add("P2-auth-r2", 9, "P2", M_NSE, C, AUTH, "sha1-2048", "AutomataWerk", "R2")
    add("P2-auth-r3", 6, "P2", M_NSE, C, AUTH, "sha1-2048", "AutomataWerk", "R3")
    add("P2-acc-ac", 47, "P2", M_NSE, AC, PROD, "sha1-1024", "Bachmann")
    add("P2-acc-ac2", 8, "P2", M_NSSE, AC, PROD, "sha1-1024", "Bachmann")

    # --- P3: {N, D2} (13), most-secure D2 -----------------------------------
    add("P3-auth", 13, "P3", M_NSE, C, AUTH, "sha1-2048", "Wago")

    # --- P4 family: {N, D1, D2, S2} (425) + S1 variant (10) ------------------
    # The S2 supporters whose certificates are too weak (SHA-1) sit here.
    add("P4-sc-token-override", 1, "P4", M_NSSE, AC, SC, "sha1-2048",
        "AutomataWerk", "R1", anon_secure_only=True)
    add("P4-sc-cct", 43, "P4", M_NSSE, CCT, SC, "sha1-2048",
        "AutomataWerk", "R1")
    add("P4-auth-c-r1", 43, "P4", M_NSSE, C, AUTH, "sha1-2048",
        "AutomataWerk", "R1")
    add("P4-auth-c-1024", 34, "P4", M_NSSE, C, AUTH, "sha1-1024", "Bachmann")
    add("P4-auth-ac", 18, "P4", M_NSSE, AC, AUTH, "sha1-1024", "Bachmann")
    add("P4-auth-cc", 4, "P4", M_NSSE, CC, AUTH, "sha1-1024", "Bachmann")
    add("P4-auth-acc", 17, "P4", M_NSSE, ACC, AUTH, "sha1-1024", "Bachmann")
    add("P4-auth-acct", 6, "P4", M_NSSE, ACCT, AUTH, "sha1-1024", "Bachmann")
    add("P4-auth-crt", 3, "P4", M_NSSE, Crt, AUTH, "sha1-1024", "Bachmann")
    # Accessible P4 hosts: all with SHA-1 certificates (keeps the 92 %
    # union exact; see DESIGN.md §5).
    add("P4-acc-a", 46, "P4", M_NSSE, A, PROD, "sha1-2048", "AutomataWerk", "R1")
    add("P4-acc-ac-prod", 4, "P4", M_NSSE, AC, PROD, "sha1-2048",
        "AutomataWerk", "R1")
    add("P4-acc-ac-test", 20, "P4", M_NSSE, AC, TEST, "sha1-2048",
        "AutomataWerk", "R1")
    add("P4-acc-ac-uncl", 47, "P4", M_NSSE, AC, UNCL, "sha1-2048",
        "AutomataWerk", "R1")
    add("P4-acc-ac-uncl2", 71, "P4", M_NSSE, AC, UNCL, "sha1-1024", "Bachmann")
    add("P4-acc-acc-test", 8, "P4", M_NSSE, ACC, TEST, "sha1-2048",
        "AutomataWerk", "R1")
    # SHA-256 certificates on D1-announcing hosts ("too strong", ↑75
    # together with Q1's 5): 55 + 5 (reuse group R4) + 10 (S1 hosts).
    add("P4-sha256", 55, "P4", M_NSSE, C, AUTH, "sha256-2048", "Bachmann")
    add("P4-sha256-r4", 5, "P4", M_NSSE, C, AUTH, "sha256-2048", "other", "R4")
    # The 10 S1-announcing hosts (SHA-256 certificates).
    add("P4s1-auth", 10, "P4s1", M_NSSE, C, AUTH, "sha256-2048", "Beckhoff")

    # --- P6: {N, S2} (42) ----------------------------------------------------
    add("P6-auth-sha1", 5, "P6", M_NSE, C, AUTH, "sha1-2048", "Beckhoff")
    add("P6-auth-sha256", 15, "P6", M_NSE, C, AUTH, "sha256-2048", "Beckhoff")
    add("P6-acc-sha1", 6, "P6", M_NSE, ACC, TEST, "sha1-2048", "Beckhoff")
    add("P6-acc-sha1-u", 1, "P6", M_NSE, ACC, UNCL, "sha1-2048", "Beckhoff")
    add("P6-acc-sha256", 15, "P6", M_NSE, ACC, UNCL, "sha256-2048", "Beckhoff")

    # --- P8: {N, D2, S2, S3} (8) — the 5 "too strong" 4096-bit keys ---------
    add("P8-auth", 1, "P8", M_NSE, C, AUTH, "sha256-4096", "other")
    add("P8-acc-prod", 4, "P8", M_NSE, ACC, PROD, "sha256-4096", "Wago")
    add("P8-acc-prod2", 2, "P8", M_NSE, ACC, PROD, "sha256-2048", "Wago")
    add("P8-acc-uncl", 1, "P8", M_NSE, ACC, UNCL, "sha256-2048", "Wago")

    # --- Q groups: no None policy — secure channel mandatory ----------------
    # The 71 accessible ones are the paper's "servers that otherwise
    # force clients to communicate securely"; the 8 rejected ones are
    # Table 2's secure-channel column for anonymous combos.
    add("Q1-acc-sha1", 8, "Q1", M_SE, AC, PROD, "sha1-2048", "Bachmann")
    add("Q1-acc-sha256", 2, "Q1", M_SE, AC, PROD, "sha256-2048", "Bachmann")
    add("Q1-sc", 3, "Q1", M_SE, ACC, SC, "sha256-2048", "Bachmann")
    add("Q2-acc-prod-sha1", 24, "Q2", M_SE, AC, PROD, "sha1-2048", "Bachmann")
    add("Q2-acc-prod-sha256", 6, "Q2", M_SE, AC, PROD, "sha256-2048", "Bachmann")
    add("Q2-acc-uncl-se", 8, "Q2", M_SE, AC, UNCL, "sha256-2048", "other")
    add("Q2-acc-uncl-ssse", 8, "Q2", M_SSE, AC, UNCL, "sha256-2048", "other")
    add("Q2-sc-ssse", 3, "Q2", M_SSE, AC, SC, "sha256-2048", "other")
    add("Q2-sc-s", 1, "Q2", M_S, AC, SC, "sha256-2048", "other")
    add("Q3-acc-a", 10, "Q3", M_SSE, A, PROD, "sha256-2048", "Wago")
    add("Q3-acc-acc", 5, "Q3", M_SSE, ACC, PROD, "sha256-2048", "other")
    add("Q3-sc", 1, "Q3", M_SSE, A, SC, "sha256-2048", "other")

    return rows


@dataclass
class PopulationSpec:
    rows: list[SpecRow] = field(default_factory=list)

    @property
    def total_servers(self) -> int:
        return sum(row.count for row in self.rows)

    def expand(self):
        """Yield (host_index, row) pairs, one per host."""
        index = 0
        for row in self.rows:
            for _ in range(row.count):
                yield index, row
                index += 1

    # --- marginal computations (used by validate and tests) ----------------

    def count_where(self, predicate) -> int:
        return sum(row.count for row in self.rows if predicate(row))

    def mode_supported(self, mode: MessageSecurityMode) -> int:
        return self.count_where(lambda r: mode in r.mode_set)

    def mode_least(self, mode: MessageSecurityMode) -> int:
        return self.count_where(
            lambda r: min(r.mode_set, key=lambda m: m.security_rank) == mode
        )

    def mode_most(self, mode: MessageSecurityMode) -> int:
        return self.count_where(
            lambda r: max(r.mode_set, key=lambda m: m.security_rank) == mode
        )

    def policy_supported(self, label: str) -> int:
        policy = policy_by_label(label)
        return self.count_where(
            lambda r: policy in POLICY_GROUPS[r.policy_group].policies
        )

    def policy_least(self, label: str) -> int:
        policy = policy_by_label(label)
        return self.count_where(
            lambda r: min(
                POLICY_GROUPS[r.policy_group].policies,
                key=lambda p: p.security_rank,
            )
            is policy
        )

    def policy_most(self, label: str) -> int:
        policy = policy_by_label(label)
        return self.count_where(
            lambda r: max(
                POLICY_GROUPS[r.policy_group].policies,
                key=lambda p: p.security_rank,
            )
            is policy
        )

    def table2_cell(self, tokens: tuple, outcome: str) -> int:
        return self.count_where(
            lambda r: set(r.token_combo) == set(tokens) and r.outcome == outcome
        )

    def deficient_count(self) -> int:
        """Hosts with at least one configuration deficit (paper: 92 %)."""
        return self.count_where(spec_row_is_deficient)

    def manufacturer_count(self, name: str) -> int:
        return self.count_where(lambda r: r.manufacturer == name)

    def reuse_group_size(self, group: str) -> int:
        return self.count_where(lambda r: r.reuse_group == group)

    def personality_counts(self) -> dict[str, int]:
        """Hosts per hostile personality — the anomaly ground truth.

        Empty for well-behaved populations (the default spec), which
        is exactly what the ``anomalies`` analysis reports for them.
        """
        counts: dict[str, int] = {}
        for row in self.rows:
            if row.personality is not None:
                counts[row.personality] = (
                    counts.get(row.personality, 0) + row.count
                )
        return counts

    def negotiation_expectations(self) -> dict:
        """Aggregate negotiated-security ground truth for this spec.

        ``by_pair`` counts hosts per expected negotiated
        ``(policy short label, mode value)``; ``failed`` counts hosts
        whose handshake the server aborts; ``none_only`` counts hosts
        with nothing to negotiate.  The registry analysis
        ``analyze_negotiated_security`` must reproduce these numbers
        from scan records alone.
        """
        by_pair: dict[tuple[str, int], int] = {}
        failed = 0
        none_only = 0
        for row in self.rows:
            policy_uri, mode, error = row.expected_negotiation()
            if error is not None:
                failed += row.count
            elif policy_uri is None:
                none_only += row.count
            else:
                label = policy_uri.rsplit("#", 1)[-1]
                key = (label, mode)
                by_pair[key] = by_pair.get(key, 0) + row.count
        return {"by_pair": by_pair, "failed": failed, "none_only": none_only}

    def validate(self) -> None:
        """Assert every paper marginal; raises AssertionError on drift."""
        expect = PAPER_TOTALS
        assert self.total_servers == expect["servers"], self.total_servers

        for group_key, group in POLICY_GROUPS.items():
            actual = self.count_where(lambda r: r.policy_group == group_key)
            assert actual == group.target_count, (
                f"group {group_key}: {actual} != {group.target_count}"
            )

        # Figure 3 left (modes).
        assert self.mode_supported(N) == 1035
        assert self.mode_supported(S) == 588
        assert self.mode_supported(SE) == 843
        assert self.mode_least(N) == 1035
        assert self.mode_least(S) == 28
        assert self.mode_least(SE) == 51
        assert self.mode_most(N) == 270
        assert self.mode_most(S) == 1
        assert self.mode_most(SE) == 843

        # Figure 3 right (policies).
        for label, supported, least, most in (
            ("N", 1035, 1035, 270),
            ("D1", 715, 13, 24),
            ("D2", 762, 50, 256),
            ("S1", 10, 0, 0),
            ("S2", 564, 16, 556),
            ("S3", 8, 0, 8),
        ):
            assert self.policy_supported(label) == supported, label
            assert self.policy_least(label) == least, label
            assert self.policy_most(label) == most, label

        # Table 2 cells.
        for tokens, outcome, count in TABLE2_CELLS:
            actual = self.table2_cell(tokens, outcome)
            assert actual == count, (tokens, outcome, actual, count)

        # Figure 4 certificate conformance.
        assert self._s2_nonmatching() == 409
        assert self._d1_too_strong() == 75
        assert self._d1_too_weak() == 7
        assert self._d2_too_strong() == 5

        # §5.3 certificate reuse.
        assert self.reuse_group_size("R1") == 385
        assert self.reuse_group_size("R2") == 9
        assert self.reuse_group_size("R3") == 6
        reuse_ge3 = {
            r.reuse_group for r in self.rows if r.reuse_group is not None
        }
        assert len(reuse_ge3) == 9, reuse_ge3

        # §5.4 key counts.
        anonymous = self.count_where(lambda r: r.offers_anonymous)
        assert anonymous == 572, anonymous
        accessible = self.count_where(lambda r: r.accessible)
        assert accessible == 493, accessible
        forced_secure = self.count_where(
            lambda r: r.accessible and N not in r.mode_set
        )
        assert forced_secure == 71, forced_secure

        # Overall deficit (92 %).
        assert self.deficient_count() == 1025, self.deficient_count()

    # --- certificate conformance helpers ------------------------------------

    def _cert_counts(self, policy_label: str):
        policy = policy_by_label(policy_label)
        for row in self.rows:
            if policy in POLICY_GROUPS[row.policy_group].policies:
                yield row, CERT_CLASSES[row.cert_class]

    def _s2_nonmatching(self) -> int:
        policy = policy_by_label("S2")
        return sum(
            row.count
            for row, cert in self._cert_counts("S2")
            if not cert.matches(policy)
        )

    def _d1_too_strong(self) -> int:
        return sum(
            row.count
            for row, cert in self._cert_counts("D1")
            if cert.signature_hash == "sha256"
        )

    def _d1_too_weak(self) -> int:
        return sum(
            row.count
            for row, cert in self._cert_counts("D1")
            if cert.signature_hash == "md5"
        )

    def _d2_too_strong(self) -> int:
        return sum(
            row.count
            for row, cert in self._cert_counts("D2")
            if cert.key_bits > 2048
        )


def spec_row_is_deficient(row: SpecRow) -> bool:
    """Ground-truth deficit predicate (mirrors the paper's classes)."""
    group = POLICY_GROUPS[row.policy_group]
    ranked = sorted(group.policies, key=lambda p: p.security_rank)
    most = ranked[-1]
    if not most.provides_security:
        return True  # None only
    if most.is_deprecated:
        return True  # deprecated policies as the best option
    cert = CERT_CLASSES[row.cert_class]
    s2_or_better = [p for p in group.policies if p.is_secure_and_current]
    if any(not cert.matches(p) for p in s2_or_better):
        return True  # too-weak certificate for the announced policy
    if row.reuse_group is not None:
        return True  # systematic certificate reuse
    if row.accessible:
        return True  # anonymous access to the address space
    return False


TABLE2_CELLS = (
    (A, PROD, 116), (A, TEST, 8), (A, UNCL, 5), (A, AUTH, 9), (A, SC, 1),
    (C, AUTH, 464), (C, SC, 21),
    (AC, PROD, 168), (AC, TEST, 20), (AC, UNCL, 134), (AC, AUTH, 38), (AC, SC, 5),
    (CC, AUTH, 4), (CC, SC, 7),
    (ACC, PROD, 11), (ACC, TEST, 14), (ACC, UNCL, 17), (ACC, AUTH, 17), (ACC, SC, 3),
    (CCT, SC, 43),
    (ACCT, AUTH, 6),
    (Crt, AUTH, 3),
)

PAPER_TOTALS = {
    "servers": 1114,
    "accessible": 493,
    "anonymous_offered": 572,
    "anonymous_offered_channel_ok": 563,
    "deficient": 1025,
    "forced_secure_accessible": 71,
    "secure_channel_rejected": 80,
    "auth_rejected": 541,
}


def build_default_spec() -> PopulationSpec:
    """The validated spec for the latest measurement (2020-08-30)."""
    spec = PopulationSpec(rows=_rows())
    spec.validate()
    return spec
