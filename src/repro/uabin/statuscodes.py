"""OPC UA status codes (OPC 10000-4 Annex A / CSV mapping).

A status code is a 32-bit value whose top two bits encode severity
(00 good, 01 uncertain, 10 bad).  The registry below covers every code
the server, client, and scanner raise or interpret; unknown codes
still round-trip and render as hex.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StatusCode:
    value: int

    @property
    def is_good(self) -> bool:
        return (self.value >> 30) == 0

    @property
    def is_bad(self) -> bool:
        return (self.value >> 30) == 2

    @property
    def name(self) -> str:
        return _NAMES.get(self.value, f"0x{self.value:08X}")

    def __repr__(self) -> str:
        return f"StatusCode({self.name})"

    def __bool__(self) -> bool:
        # Truthiness means success, matching gopcua/open62541 idiom.
        return self.is_good


class StatusCodes:
    """Namespace of well-known status code constants."""

    Good = StatusCode(0x00000000)
    BadUnexpectedError = StatusCode(0x80010000)
    BadInternalError = StatusCode(0x80020000)
    BadOutOfMemory = StatusCode(0x80030000)
    BadResourceUnavailable = StatusCode(0x80040000)
    BadCommunicationError = StatusCode(0x80050000)
    BadEncodingError = StatusCode(0x80060000)
    BadDecodingError = StatusCode(0x80070000)
    BadEncodingLimitsExceeded = StatusCode(0x80080000)
    BadRequestTooLarge = StatusCode(0x80B80000)
    BadResponseTooLarge = StatusCode(0x80B90000)
    BadTimeout = StatusCode(0x800A0000)
    BadServiceUnsupported = StatusCode(0x800B0000)
    BadShutdown = StatusCode(0x800C0000)
    BadServerNotConnected = StatusCode(0x800D0000)
    BadServerHalted = StatusCode(0x800E0000)
    BadNothingToDo = StatusCode(0x800F0000)
    BadTooManyOperations = StatusCode(0x80100000)
    BadDataTypeIdUnknown = StatusCode(0x80110000)
    BadCertificateInvalid = StatusCode(0x80120000)
    BadSecurityChecksFailed = StatusCode(0x80130000)
    BadCertificateTimeInvalid = StatusCode(0x80140000)
    BadCertificateIssuerTimeInvalid = StatusCode(0x80150000)
    BadCertificateHostNameInvalid = StatusCode(0x80160000)
    BadCertificateUriInvalid = StatusCode(0x80170000)
    BadCertificateUseNotAllowed = StatusCode(0x80180000)
    BadCertificateIssuerUseNotAllowed = StatusCode(0x80190000)
    BadCertificateUntrusted = StatusCode(0x801A0000)
    BadCertificateRevocationUnknown = StatusCode(0x801B0000)
    BadCertificateRevoked = StatusCode(0x801D0000)
    BadUserAccessDenied = StatusCode(0x801F0000)
    BadIdentityTokenInvalid = StatusCode(0x80200000)
    BadIdentityTokenRejected = StatusCode(0x80210000)
    BadSecureChannelIdInvalid = StatusCode(0x80220000)
    BadInvalidTimestamp = StatusCode(0x80230000)
    BadNonceInvalid = StatusCode(0x80240000)
    BadSessionIdInvalid = StatusCode(0x80250000)
    BadSessionClosed = StatusCode(0x80260000)
    BadSessionNotActivated = StatusCode(0x80270000)
    BadSubscriptionIdInvalid = StatusCode(0x80280000)
    BadRequestHeaderInvalid = StatusCode(0x802A0000)
    BadTimestampsToReturnInvalid = StatusCode(0x802B0000)
    BadRequestCancelledByClient = StatusCode(0x802C0000)
    BadNoCommunication = StatusCode(0x80310000)
    BadWaitingForInitialData = StatusCode(0x80320000)
    BadNodeIdInvalid = StatusCode(0x80330000)
    BadNodeIdUnknown = StatusCode(0x80340000)
    BadAttributeIdInvalid = StatusCode(0x80350000)
    BadIndexRangeInvalid = StatusCode(0x80360000)
    BadIndexRangeNoData = StatusCode(0x80370000)
    BadDataEncodingInvalid = StatusCode(0x80380000)
    BadDataEncodingUnsupported = StatusCode(0x80390000)
    BadNotReadable = StatusCode(0x803A0000)
    BadNotWritable = StatusCode(0x803B0000)
    BadOutOfRange = StatusCode(0x803C0000)
    BadNotSupported = StatusCode(0x803D0000)
    BadNotFound = StatusCode(0x803E0000)
    BadObjectDeleted = StatusCode(0x803F0000)
    BadNotImplemented = StatusCode(0x80400000)
    BadMonitoringModeInvalid = StatusCode(0x80410000)
    BadMonitoredItemIdInvalid = StatusCode(0x80420000)
    BadViewIdUnknown = StatusCode(0x806B0000)
    BadBrowseNameInvalid = StatusCode(0x80600000)
    BadReferenceTypeIdInvalid = StatusCode(0x804C0000)
    BadBrowseDirectionInvalid = StatusCode(0x804D0000)
    BadNodeNotInView = StatusCode(0x804E0000)
    BadRequestTypeInvalid = StatusCode(0x80530000)
    BadSecurityModeRejected = StatusCode(0x80540000)
    BadSecurityPolicyRejected = StatusCode(0x80550000)
    BadTooManySessions = StatusCode(0x80560000)
    BadUserSignatureInvalid = StatusCode(0x80570000)
    BadApplicationSignatureInvalid = StatusCode(0x80580000)
    BadNoValidCertificates = StatusCode(0x80590000)
    BadIdentityChangeNotSupported = StatusCode(0x80C60000)
    BadRequestCancelledByRequest = StatusCode(0x805A0000)
    BadParentNodeIdInvalid = StatusCode(0x805B0000)
    BadReferenceNotAllowed = StatusCode(0x805C0000)
    BadMethodInvalid = StatusCode(0x80750000)
    BadArgumentsMissing = StatusCode(0x80760000)
    BadNotExecutable = StatusCode(0x81110000)
    BadTooManyArguments = StatusCode(0x80E50000)
    BadSecurityModeInsufficient = StatusCode(0x80E60000)
    BadTcpServerTooBusy = StatusCode(0x807D0000)
    BadTcpMessageTypeInvalid = StatusCode(0x807E0000)
    BadTcpSecureChannelUnknown = StatusCode(0x807F0000)
    BadTcpMessageTooLarge = StatusCode(0x80800000)
    BadTcpNotEnoughResources = StatusCode(0x80810000)
    BadTcpInternalError = StatusCode(0x80820000)
    BadTcpEndpointUrlInvalid = StatusCode(0x80830000)
    BadRequestInterrupted = StatusCode(0x80840000)
    BadRequestTimeout = StatusCode(0x80850000)
    BadSecureChannelClosed = StatusCode(0x80860000)
    BadSecureChannelTokenUnknown = StatusCode(0x80870000)
    BadSequenceNumberInvalid = StatusCode(0x80880000)
    BadProtocolVersionUnsupported = StatusCode(0x80BE0000)
    BadConnectionClosed = StatusCode(0x80AE0000)
    BadInvalidState = StatusCode(0x80AF0000)
    BadMaxConnectionsReached = StatusCode(0x80B70000)
    BadInvalidArgument = StatusCode(0x80AB0000)
    UncertainReferenceOutOfServer = StatusCode(0x406C0000)


_NAMES: dict[int, str] = {
    code.value: name
    for name, code in vars(StatusCodes).items()
    if isinstance(code, StatusCode)
}


def lookup_status(value: int) -> StatusCode:
    """Wrap a raw uint32 as a StatusCode (known or not)."""
    return StatusCode(value & 0xFFFFFFFF)
