"""Endpoint ranking shared by the scanner's secure-channel and session steps.

The grab sequence picks endpoints from the advertised list twice —
the strongest pair for the secure channel (probe and negotiation), the
weakest anonymous one for the session attempt — and every caller,
analyses included, must rank identically for records to stay pure
functions of the endpoint list.  The ordering key is
``(policy.security_rank, mode.security_rank)``: policy strength
dominates, mode breaks ties, and among equal pairs the first
advertised endpoint wins (both pickers are stable).

Both pickers skip an advertised pair no channel can run: policy None
in any mode but None, or another policy in any mode but Sign or
SignAndEncrypt (mode None, or the Invalid value 0).  A client cannot
open such a channel, so a host whose only anonymous endpoint is such a
pair reads as not attempted, and one whose only secure endpoints are
such pairs gets no secure-channel probe.
"""

from __future__ import annotations

from repro.secure.policies import POLICY_NONE, SecurityPolicy, policy_by_uri
from repro.uabin.enums import MessageSecurityMode, UserTokenType


def endpoint_policy(endpoint) -> SecurityPolicy | None:
    """The endpoint's registered policy, or None when absent/unknown."""
    if endpoint.security_policy_uri is None:
        return None
    try:
        return policy_by_uri(endpoint.security_policy_uri)
    except KeyError:
        return None


def _pair_can_exist(policy: SecurityPolicy, mode: MessageSecurityMode) -> bool:
    """Whether a channel can run ``policy`` in ``mode`` at all."""
    if policy is POLICY_NONE:
        return mode == MessageSecurityMode.NONE
    return mode in (
        MessageSecurityMode.SIGN,
        MessageSecurityMode.SIGN_AND_ENCRYPT,
    )


def security_rank(
    policy: SecurityPolicy, mode: MessageSecurityMode
) -> tuple[int, int]:
    """Comparable strength of a ``(policy, mode)`` pair."""
    return (policy.security_rank, mode.security_rank)


def most_secure_endpoint(endpoints):
    """Strongest advertised secure ``(endpoint, policy)`` pair, or None.

    None-mode endpoints, impossible pairs and endpoints with an unknown
    policy URI are skipped; ties keep the first advertised endpoint.
    """
    best = None
    best_rank = (-1, -1)
    for endpoint in endpoints:
        if endpoint.mode == MessageSecurityMode.NONE:
            continue
        policy = endpoint_policy(endpoint)
        if policy is None or not _pair_can_exist(policy, endpoint.mode):
            continue
        rank = security_rank(policy, endpoint.mode)
        if rank > best_rank:
            best_rank = rank
            best = (endpoint, policy)
    return best


def weakest_anonymous_endpoint(endpoints):
    """Preferred ``(endpoint, policy)`` for the anonymous session attempt.

    None-mode endpoints first (cheapest), then the weakest secure one —
    the scanner is after access classification, not confidentiality.
    Returns None when no endpoint that can exist advertises the
    anonymous token.
    """
    candidates = []
    for endpoint in endpoints:
        if UserTokenType.ANONYMOUS not in endpoint.token_type_set():
            continue
        policy = endpoint_policy(endpoint)
        if policy is None or not _pair_can_exist(policy, endpoint.mode):
            continue
        candidates.append((security_rank(policy, endpoint.mode), endpoint, policy))
    if not candidates:
        return None
    candidates.sort(key=lambda item: item[0])
    _, endpoint, policy = candidates[0]
    return endpoint, policy
