"""Sans-io HTTP/1.1 stack: messages, ranges, multipart, wire codec."""

from repro.http.codec import (
    CONNECTION_CLOSED,
    NEED_DATA,
    BodyCollector,
    Data,
    EndOfMessage,
    HttpParser,
    gather_request,
    gather_response,
    serialize_request,
    serialize_response,
    serialize_response_head,
)
from repro.http.headers import Headers, freshness_lifetime, parse_cache_control
from repro.http.messages import Request, Response, text_response
from repro.http.multipart import (
    RangePart,
    decode_byteranges,
    encode_byteranges,
    gather_byteranges,
    make_boundary,
)
from repro.http.ranges import (
    RangeSpec,
    format_content_range,
    format_range_header,
    merge_spans,
    parse_content_range,
    parse_range_header,
    plan_chunks,
    resolve_ranges,
)
from repro.http.uri import Url

__all__ = [
    "CONNECTION_CLOSED",
    "NEED_DATA",
    "BodyCollector",
    "Data",
    "EndOfMessage",
    "HttpParser",
    "gather_request",
    "gather_response",
    "serialize_request",
    "serialize_response",
    "serialize_response_head",
    "Headers",
    "freshness_lifetime",
    "parse_cache_control",
    "Request",
    "Response",
    "text_response",
    "RangePart",
    "decode_byteranges",
    "encode_byteranges",
    "gather_byteranges",
    "make_boundary",
    "RangeSpec",
    "format_content_range",
    "format_range_header",
    "merge_spans",
    "parse_content_range",
    "parse_range_header",
    "plan_chunks",
    "resolve_ranges",
    "Url",
]
