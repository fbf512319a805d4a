"""Enumerations from the OPC UA services specification (OPC 10000-4).

``MessageSecurityMode`` and ``UserTokenType`` are the two enums the
paper's analysis pivots on: the former is Figure 3's x-axis, the
latter Figure 6's and Table 2's.
"""

from __future__ import annotations

import enum


class MessageSecurityMode(enum.IntEnum):
    """Whether messages are signed and/or encrypted on a channel."""

    INVALID = 0
    NONE = 1
    SIGN = 2
    SIGN_AND_ENCRYPT = 3

    @property
    def short_label(self) -> str:
        return {
            MessageSecurityMode.INVALID: "?",
            MessageSecurityMode.NONE: "N",
            MessageSecurityMode.SIGN: "S",
            MessageSecurityMode.SIGN_AND_ENCRYPT: "S&E",
        }[self]

    @property
    def security_rank(self) -> int:
        """Ordering used for the 'least/most secure mode' analysis."""
        return {
            MessageSecurityMode.INVALID: -1,
            MessageSecurityMode.NONE: 0,
            MessageSecurityMode.SIGN: 1,
            MessageSecurityMode.SIGN_AND_ENCRYPT: 2,
        }[self]


class UserTokenType(enum.IntEnum):
    """How a client authenticates during session activation."""

    ANONYMOUS = 0
    USERNAME = 1
    CERTIFICATE = 2
    ISSUED_TOKEN = 3

    @property
    def short_label(self) -> str:
        return {
            UserTokenType.ANONYMOUS: "anon.",
            UserTokenType.USERNAME: "cred.",
            UserTokenType.CERTIFICATE: "cert.",
            UserTokenType.ISSUED_TOKEN: "token",
        }[self]


class ApplicationType(enum.IntEnum):
    SERVER = 0
    CLIENT = 1
    CLIENT_AND_SERVER = 2
    DISCOVERY_SERVER = 3


class SecurityTokenRequestType(enum.IntEnum):
    ISSUE = 0
    RENEW = 1


class NodeClass(enum.IntFlag):
    UNSPECIFIED = 0
    OBJECT = 1
    VARIABLE = 2
    METHOD = 4
    OBJECT_TYPE = 8
    VARIABLE_TYPE = 16
    REFERENCE_TYPE = 32
    DATA_TYPE = 64
    VIEW = 128


class BrowseDirection(enum.IntEnum):
    FORWARD = 0
    INVERSE = 1
    BOTH = 2


class TimestampsToReturn(enum.IntEnum):
    SOURCE = 0
    SERVER = 1
    BOTH = 2
    NEITHER = 3


class AttributeId(enum.IntEnum):
    """Node attributes addressable by the Read service (OPC 10000-3)."""

    NODE_ID = 1
    NODE_CLASS = 2
    BROWSE_NAME = 3
    DISPLAY_NAME = 4
    DESCRIPTION = 5
    WRITE_MASK = 6
    USER_WRITE_MASK = 7
    IS_ABSTRACT = 8
    SYMMETRIC = 9
    INVERSE_NAME = 10
    CONTAINS_NO_LOOPS = 11
    EVENT_NOTIFIER = 12
    VALUE = 13
    DATA_TYPE = 14
    VALUE_RANK = 15
    ARRAY_DIMENSIONS = 16
    ACCESS_LEVEL = 17
    USER_ACCESS_LEVEL = 18
    MINIMUM_SAMPLING_INTERVAL = 19
    HISTORIZING = 20
    EXECUTABLE = 21
    USER_EXECUTABLE = 22


class AccessLevel(enum.IntFlag):
    """Bit mask for the AccessLevel/UserAccessLevel attributes."""

    NONE = 0
    CURRENT_READ = 1
    CURRENT_WRITE = 2
    HISTORY_READ = 4
    HISTORY_WRITE = 8
    SEMANTIC_CHANGE = 16
    STATUS_WRITE = 32
    TIMESTAMP_WRITE = 64
