"""Property-based round-trips for composite service structures."""

import string

from hypothesis import given, settings, strategies as st

from repro.uabin.builtin import LocalizedText, QualifiedName
from repro.uabin.enums import (
    ApplicationType,
    MessageSecurityMode,
    UserTokenType,
)
from repro.uabin.types_common import (
    ApplicationDescription,
    EndpointDescription,
    UserTokenPolicy,
)
from repro.uabin.types_discovery import GetEndpointsResponse
from repro.uabin.types_view import (
    BrowseResponse,
    BrowseResult,
    ReferenceDescription,
)

text_values = st.one_of(
    st.none(), st.text(alphabet=string.printable, max_size=40)
)
uri_values = st.one_of(st.none(), st.text(alphabet=string.ascii_letters + ":/._-", max_size=60))


@st.composite
def application_descriptions(draw):
    return ApplicationDescription(
        application_uri=draw(uri_values),
        product_uri=draw(uri_values),
        application_name=LocalizedText(draw(text_values), draw(text_values)),
        application_type=draw(st.sampled_from(list(ApplicationType))),
        discovery_urls=draw(
            st.one_of(st.none(), st.lists(st.text(max_size=30), max_size=4))
        ),
    )


@st.composite
def token_policies(draw):
    return UserTokenPolicy(
        policy_id=draw(text_values),
        token_type=draw(st.sampled_from(list(UserTokenType))),
        issued_token_type=draw(text_values),
        issuer_endpoint_url=draw(uri_values),
        security_policy_uri=draw(uri_values),
    )


@st.composite
def endpoint_descriptions(draw):
    return EndpointDescription(
        endpoint_url=draw(uri_values),
        server=draw(application_descriptions()),
        server_certificate=draw(st.one_of(st.none(), st.binary(max_size=80))),
        security_mode=draw(st.sampled_from(list(MessageSecurityMode))),
        security_policy_uri=draw(uri_values),
        user_identity_tokens=draw(
            st.one_of(st.none(), st.lists(token_policies(), max_size=4))
        ),
        transport_profile_uri=draw(uri_values),
        security_level=draw(st.integers(0, 255)),
    )


@settings(max_examples=60, deadline=None)
@given(application_descriptions())
def test_application_description_round_trip(value):
    assert ApplicationDescription.from_bytes(value.to_bytes()) == value


@settings(max_examples=60, deadline=None)
@given(endpoint_descriptions())
def test_endpoint_description_round_trip(value):
    assert EndpointDescription.from_bytes(value.to_bytes()) == value


@settings(max_examples=30, deadline=None)
@given(st.lists(endpoint_descriptions(), max_size=5))
def test_get_endpoints_response_round_trip(endpoints):
    message = GetEndpointsResponse(endpoints=endpoints)
    assert GetEndpointsResponse.from_bytes(message.to_bytes()) == message


qualified_names = st.builds(
    QualifiedName, st.integers(0, 0xFFFF), st.text(max_size=20)
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(qualified_names, max_size=6), max_size=3))
def test_browse_response_round_trip(browse_names):
    response = BrowseResponse(
        results=[
            BrowseResult(
                references=[
                    ReferenceDescription(browse_name=name) for name in names
                ]
            )
            for names in browse_names
        ]
    )
    assert BrowseResponse.from_bytes(response.to_bytes()) == response


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=1, max_size=120))
def test_arbitrary_bytes_never_crash_decoder(data):
    """Decoding garbage must raise a clean error, never crash oddly."""
    from repro.uabin.structs import DecodingError

    try:
        EndpointDescription.from_bytes(data)
    except (DecodingError, ValueError, UnicodeDecodeError, OverflowError):
        pass  # clean, expected failure modes
