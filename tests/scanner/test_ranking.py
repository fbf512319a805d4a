"""Unit tests for the shared endpoint-ranking helpers.

These pickers drive two grab steps (the secure channel, which probes
and negotiates, and the session attempt) and the ``negotiated``
analysis; their tie-break behaviour is part of the
determinism contract, so it is pinned here explicitly.
"""

from __future__ import annotations

from repro.scanner.ranking import (
    endpoint_policy,
    most_secure_endpoint,
    security_rank,
    weakest_anonymous_endpoint,
)
from repro.scanner.records import EndpointRecord
from repro.secure.policies import (
    POLICY_BASIC128RSA15,
    POLICY_BASIC256SHA256,
    POLICY_NONE,
)
from repro.uabin.enums import MessageSecurityMode, UserTokenType

INVALID = int(MessageSecurityMode.INVALID)
N = int(MessageSecurityMode.NONE)
S = int(MessageSecurityMode.SIGN)
SE = int(MessageSecurityMode.SIGN_AND_ENCRYPT)
ANON = int(UserTokenType.ANONYMOUS)
USER = int(UserTokenType.USERNAME)


def _ep(mode, policy, tokens=(ANON,)):
    return EndpointRecord(
        endpoint_url="opc.tcp://10.0.0.1:4840/",
        security_mode=mode,
        security_policy_uri=policy.uri if policy is not None else None,
        token_types=list(tokens),
    )


class TestEndpointPolicy:
    def test_known_uri_resolves(self):
        assert endpoint_policy(_ep(SE, POLICY_BASIC256SHA256)) is (
            POLICY_BASIC256SHA256
        )

    def test_missing_and_unknown_uri_are_none(self):
        assert endpoint_policy(_ep(N, None)) is None
        unknown = _ep(SE, POLICY_BASIC256SHA256)
        unknown.security_policy_uri = "http://example.org/NotAPolicy"
        assert endpoint_policy(unknown) is None


class TestSecurityRank:
    def test_policy_dominates_mode(self):
        weak_policy_strong_mode = security_rank(
            POLICY_BASIC128RSA15, MessageSecurityMode.SIGN_AND_ENCRYPT
        )
        strong_policy_weak_mode = security_rank(
            POLICY_BASIC256SHA256, MessageSecurityMode.SIGN
        )
        assert strong_policy_weak_mode > weak_policy_strong_mode


class TestMostSecure:
    def test_picks_strongest_pair(self):
        endpoints = [
            _ep(N, POLICY_NONE),
            _ep(SE, POLICY_BASIC128RSA15),
            _ep(S, POLICY_BASIC256SHA256),
            _ep(SE, POLICY_BASIC256SHA256),
        ]
        endpoint, policy = most_secure_endpoint(endpoints)
        assert policy is POLICY_BASIC256SHA256
        assert endpoint.mode == MessageSecurityMode.SIGN_AND_ENCRYPT

    def test_none_mode_and_unknown_policies_skipped(self):
        endpoints = [_ep(N, POLICY_NONE), _ep(N, None)]
        assert most_secure_endpoint(endpoints) is None

    def test_tie_keeps_first_advertised(self):
        first = _ep(SE, POLICY_BASIC256SHA256)
        second = _ep(SE, POLICY_BASIC256SHA256)
        endpoint, _ = most_secure_endpoint([first, second])
        assert endpoint is first


class TestWeakestAnonymous:
    def test_prefers_none_mode(self):
        endpoints = [
            _ep(SE, POLICY_BASIC256SHA256),
            _ep(N, POLICY_NONE),
        ]
        endpoint, policy = weakest_anonymous_endpoint(endpoints)
        assert policy is POLICY_NONE
        assert endpoint.mode == MessageSecurityMode.NONE

    def test_falls_back_to_weakest_secure(self):
        endpoints = [
            _ep(SE, POLICY_BASIC256SHA256),
            _ep(S, POLICY_BASIC256SHA256),
        ]
        endpoint, policy = weakest_anonymous_endpoint(endpoints)
        assert policy is POLICY_BASIC256SHA256
        assert endpoint.mode == MessageSecurityMode.SIGN

    def test_ignores_endpoints_without_anonymous(self):
        endpoints = [
            _ep(N, POLICY_NONE, tokens=(USER,)),
            _ep(SE, POLICY_BASIC256SHA256),
        ]
        _, policy = weakest_anonymous_endpoint(endpoints)
        assert policy is POLICY_BASIC256SHA256

    def test_no_anonymous_endpoint_is_none(self):
        assert weakest_anonymous_endpoint(
            [_ep(N, POLICY_NONE, tokens=(USER,))]
        ) is None

    def test_tie_keeps_first_advertised(self):
        first = _ep(N, POLICY_NONE)
        second = _ep(N, POLICY_NONE)
        endpoint, _ = weakest_anonymous_endpoint([first, second])
        assert endpoint is first


class TestImpossiblePairs:
    def test_both_pickers_skip_pairs_no_channel_can_run(self):
        """Policy None cannot sign; a secure policy cannot run in mode
        None; mode Invalid runs with no policy.  No such pair may be
        ranked, let alone picked."""
        impossible = [
            _ep(S, POLICY_NONE),
            _ep(INVALID, POLICY_NONE),
            _ep(N, POLICY_BASIC256SHA256),
            _ep(INVALID, POLICY_BASIC256SHA256),
        ]
        assert most_secure_endpoint(impossible) is None
        assert weakest_anonymous_endpoint(impossible) is None
        valid = _ep(SE, POLICY_BASIC128RSA15)
        endpoints = [*impossible, valid]
        assert most_secure_endpoint(endpoints) == (valid, POLICY_BASIC128RSA15)
        assert weakest_anonymous_endpoint(endpoints) == (
            valid,
            POLICY_BASIC128RSA15,
        )
