"""Per-host OPC UA grab (the paper's zgrab2 OPC UA module).

Sequence for each open port, over three connections at most:

1. TCP connect + HEL/ACK — failures mean "not OPC UA" (the paper saw
   OPC UA on only 0.5 ‰ of hosts with TCP/4840 open).
2. None-policy discovery channel, GetEndpoints — yields the endpoint
   descriptions and the server certificate.
3. Secure channel on a second connection: OpenSecureChannel on the
   *most secure* offered (mode, policy) with our self-signed
   certificate — strict servers reject it here (Table 2's "Secure
   Channel" column) — then one protected GetEndpoints round trip on
   the same channel, which records the negotiated ``(policy, mode)``,
   or why negotiation failed, on the session attempt.
4. Anonymous session attempt on the preferred anonymous endpoint.
5. If accessible: namespace read, SoftwareVersion read, and the
   budgeted address-space traversal.

Every step catches the same :data:`PEER_FAILURES`; anything else is a
bug in this repo (or a replay divergence) and propagates.
"""

from __future__ import annotations

from repro.client import (
    CONNECTION_FAILURE_CATEGORIES,
    ClientIdentity,
    ServiceFaultError,
    TransportRejectedError,
    UaClient,
    UaClientError,
    categorize_error,
)
from repro.netsim.net import ConnectionRefused, HostDown, NetworkView, SimNetwork
from repro.scanner.limits import TraversalBudget
from repro.scanner.ranking import most_secure_endpoint, weakest_anonymous_endpoint
from repro.scanner.records import (
    CertificateInfo,
    EndpointRecord,
    HostRecord,
    SecureChannelAttempt,
    SessionAttempt,
)
from repro.scanner.traversal import traverse_address_space
from repro.secure.negotiation import ChannelSecurity
from repro.secure.policies import POLICY_NONE
from repro.server.addressspace import NodeIds
from repro.transport.messages import TransportError
from repro.uabin.enums import UserTokenType
from repro.util.ipaddr import format_endpoint_host
from repro.util.rng import DeterministicRng
from repro.util.simtime import format_utc

#: How a peer, or the network path to it, makes a grab step fail:
#: client-side protocol faults (every malformed reply included),
#: framing violations and timeouts, refused or dead connections, and
#: the ``OSError`` a live socket (or its replay) raises mid-stream.
PEER_FAILURES = (
    UaClientError,
    TransportError,
    ConnectionRefused,
    HostDown,
    OSError,
)


def grab_host(
    network: SimNetwork | NetworkView,
    address: int,
    port: int,
    identity: ClientIdentity,
    rng: DeterministicRng,
    budget: TraversalBudget | None = None,
    via_reference: bool = False,
    traverse: bool = True,
) -> HostRecord:
    """Run the full grab sequence against one host/port.

    ``network`` may be the shared :class:`SimNetwork` or a per-task
    :class:`NetworkView`; the campaign engine passes views so parallel
    grabs never race on the sweep clock.  All randomness comes from
    pure substreams of ``rng`` keyed by address and port (and, through
    the sweep stream's namespace, the sweep date), so the record is a
    function of ``(seed, date, address, port)`` alone — never of grab
    ordering.
    """
    host = network.host(address)
    record = HostRecord(
        ip=address,
        port=port,
        asn=host.asn if host is not None else None,
        timestamp=format_utc(network.clock.now()),
        via_reference=via_reference,
    )
    start_time = network.clock.now()

    try:
        socket = network.connect(address, port)
    except (ConnectionRefused, HostDown) as exc:
        record.error = str(exc)
        record.error_category = categorize_error(exc)
        return record
    record.tcp_open = True

    endpoint_url = f"opc.tcp://{format_endpoint_host(address)}:{port}/"
    client = UaClient(
        socket, identity, rng.substream(f"grab-{address}-{port}"), endpoint_url
    )

    try:
        try:
            client.hello()
            client.open_secure_channel()
            endpoints = client.get_endpoints()
        except PEER_FAILURES as exc:
            record.error = f"not OPC UA: {exc}"
            # A connection-level failure (timeout, reset) is not
            # evidence about the protocol; record the category so
            # analyses can separate silent hosts from hosts that
            # answered with a non-OPC-UA payload.
            category = categorize_error(exc)
            if category in CONNECTION_FAILURE_CATEGORIES:
                record.error_category = category
            record.scan_duration_s = (
                network.clock.now() - start_time
            ).total_seconds()
            record.scan_bytes = socket.bytes_sent
            return record

        record.is_opcua = True
        _fill_endpoint_records(record, endpoints)

        # FindServers yields the responding application's own
        # description; the endpoint list of a discovery server only
        # describes *other* applications, so attribution must not rely
        # on it.
        try:
            servers = client.find_servers()
            if servers:
                own = servers[0]
                record.application_uri = own.application_uri
                record.product_uri = own.product_uri
                record.application_type = int(own.application_type)
        except PEER_FAILURES:
            pass  # FindServers is optional; endpoint fallback stands

        # Secure channel with our self-signed certificate, used once.
        probe, negotiation_error = _probe_secure_channel(
            network, address, port, identity, rng, record
        )
        record.secure_channel = probe

        # Anonymous session attempt; it carries the negotiation outcome.
        session = record.session = _attempt_anonymous_session(
            network, address, port, identity, rng, record, budget, traverse
        )
        if probe is not None:
            if negotiation_error is None:
                session.negotiated_policy_uri = probe.security_policy_uri
                session.negotiated_mode = probe.security_mode
            else:
                session.negotiation_error = negotiation_error

        record.scan_duration_s = (
            network.clock.now() - start_time
        ).total_seconds()
        record.scan_bytes = socket.bytes_sent
        return record
    finally:
        _close_quietly(socket)


def _fill_endpoint_records(record: HostRecord, endpoints) -> None:
    for endpoint in endpoints:
        record.endpoints.append(
            EndpointRecord(
                endpoint_url=endpoint.endpoint_url,
                security_mode=int(endpoint.security_mode),
                security_policy_uri=endpoint.security_policy_uri,
                token_types=sorted(int(t) for t in endpoint.token_types()),
                security_level=endpoint.security_level,
            )
        )
        server = endpoint.server
        if record.application_uri is None and server.application_uri:
            record.application_uri = server.application_uri
            record.product_uri = server.product_uri
            record.application_type = int(server.application_type)
        if record.certificate is None and endpoint.server_certificate:
            record.certificate = CertificateInfo.from_der(
                endpoint.server_certificate
            )


def _probe_secure_channel(
    network, address, port, identity, rng, record
) -> tuple[SecureChannelAttempt | None, str | None]:
    """Open a channel at the best advertised pair and use it once.

    Returns the probe attempt — ``success`` means the server answered
    the OpenSecureChannel — and why negotiation failed: the rejection's
    status name or the probe's reason when the open failed, the failure
    of the one protected round trip otherwise.  ``None`` means both the
    open and the round trip succeeded, so the attempt's pair is the
    negotiated one.  Closing the channel afterwards is best-effort and
    changes neither outcome.
    """
    choice = most_secure_endpoint(record.endpoints)
    if choice is None:
        return None, None  # only None endpoints; nothing to probe
    endpoint, policy = choice
    attempt = SecureChannelAttempt(
        security_policy_uri=policy.uri,
        security_mode=int(endpoint.mode),
        success=False,
    )
    if record.certificate is None:
        attempt.error_reason = "no server certificate available"
        return attempt, attempt.error_reason
    cert_der = bytes.fromhex(record.certificate.der_hex)
    socket = None
    try:
        try:
            socket = network.connect(address, port)
            client = UaClient(
                socket,
                identity,
                rng.substream(f"sc-{address}-{port}"),
                f"opc.tcp://{format_endpoint_host(address)}:{port}/",
            )
            client.hello()
            client.open_secure_channel(
                ChannelSecurity.for_endpoint(
                    policy, endpoint.mode, identity, cert_der
                )
            )
        except TransportRejectedError as exc:
            attempt.error_status = exc.status.value
            attempt.error_reason = exc.reason
            return attempt, exc.status.name
        except PEER_FAILURES as exc:
            attempt.error_reason = str(exc)
            return attempt, attempt.error_reason
        attempt.success = True
        try:
            # One protected round trip proves both symmetric keysets
            # agree.
            client.get_endpoints()
        except TransportRejectedError as exc:
            return attempt, exc.status.name
        except PEER_FAILURES as exc:
            return attempt, categorize_error(exc)
        try:
            client.close()
        except PEER_FAILURES:
            pass
        return attempt, None
    finally:
        _close_quietly(socket)


def _attempt_anonymous_session(
    network, address, port, identity, rng, record, budget, traverse=True
) -> SessionAttempt:
    choice = weakest_anonymous_endpoint(record.endpoints)
    if choice is None:
        # No anonymous token advertised: the paper counts these as
        # rejected by authentication without attempting credentials.
        return SessionAttempt(attempted=False)
    endpoint, policy = choice

    # If the secure-channel probe already failed and there is no None
    # endpoint, the session cannot be attempted either.
    if (
        policy is not POLICY_NONE
        and record.secure_channel is not None
        and not record.secure_channel.success
    ):
        return SessionAttempt(
            attempted=True,
            token_type=int(UserTokenType.ANONYMOUS),
            security_mode=int(endpoint.mode),
            security_policy_uri=policy.uri,
            success=False,
            error_status=record.secure_channel.error_status,
        )

    cert_der = (
        bytes.fromhex(record.certificate.der_hex) if record.certificate else None
    )
    attempt = SessionAttempt(
        attempted=True,
        token_type=int(UserTokenType.ANONYMOUS),
        security_mode=int(endpoint.mode),
        security_policy_uri=policy.uri,
    )
    socket = None
    try:
        try:
            socket = network.connect(address, port)
            client = UaClient(
                socket,
                identity,
                rng.substream(f"session-{address}-{port}"),
                f"opc.tcp://{format_endpoint_host(address)}:{port}/",
            )
            client.hello()
            client.open_secure_channel(
                ChannelSecurity.for_endpoint(
                    policy, endpoint.mode, identity, cert_der
                )
            )
            client.create_session()
            client.activate_session()
            attempt.success = True
        except ServiceFaultError as exc:
            # The fault status code is the whole story here (and the
            # simulated lane exercises this path, whose bytes the
            # golden digests pin) — no category needed.
            attempt.error_status = exc.status.value
            return attempt
        except TransportRejectedError as exc:
            # Previously erased into error_status=None: an ERR frame
            # carries a status code worth keeping (Table 2 separates
            # secure-channel rejections from authentication ones).
            attempt.error_status = exc.status.value
            attempt.error_category = exc.category
            return attempt
        except PEER_FAILURES as exc:
            # Connection-level failure: there is no status code, but
            # "timed out" and "connection refused" are different facts
            # — record which one instead of a bare None.
            attempt.error_category = categorize_error(exc)
            return attempt

        # Anonymous access worked: collect namespaces, software
        # version, and (optionally) the budgeted traversal.  A failure
        # here must not masquerade as a clean grab — mark the attempt
        # partial — and the session is closed regardless, so live
        # servers are not left holding scanner sessions.
        try:
            _collect_session_details(
                client, network, record, budget, socket, traverse
            )
        except PEER_FAILURES as exc:
            attempt.details_error = f"{categorize_error(exc)}: {exc}"
        finally:
            try:
                client.close_session()
            except PEER_FAILURES:
                pass  # best-effort: the transport may already be gone
        return attempt
    finally:
        _close_quietly(socket)


def _close_quietly(socket) -> None:
    """Release a transport without letting teardown mask the result.

    Simulated sockets make this a no-op flag flip; live transports
    tear down a real TCP connection here.
    """
    if socket is None:
        return
    close = getattr(socket, "close", None)
    if close is None:
        return
    try:
        close()
    except Exception:
        pass


def _collect_session_details(
    client, network, record, budget, socket, traverse
) -> None:
    values = client.read_values(
        [NodeIds.Server_NamespaceArray, NodeIds.Server_SoftwareVersion]
    )
    if values and values[0].value is not None and values[0].value.value:
        record.namespaces = list(values[0].value.value)
    if len(values) > 1 and values[1].value is not None:
        record.software_version = values[1].value.value
    if traverse:
        record.nodes = traverse_address_space(
            client,
            network.clock,
            budget or TraversalBudget(),
            socket=socket,
        )
