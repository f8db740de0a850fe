// Forwarding header: the JSON codec lives in util/json.hpp. Kept only so
// code written against the old serve:: names (the benchmark program)
// still builds; new code includes util/json.hpp.
#pragma once

#include "util/json.hpp"

namespace swarmavail::serve {

using swarmavail::append_json_number;
using swarmavail::append_json_string;
using swarmavail::canonical_json;
using swarmavail::JsonLimits;
using swarmavail::JsonMember;
using swarmavail::JsonValue;
using swarmavail::parse_json;
using swarmavail::validate_utf8;
using swarmavail::write_canonical_json;

}  // namespace swarmavail::serve
