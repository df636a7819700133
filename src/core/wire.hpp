// Payload helpers for the gateway<->cloud RPC protocol, under the name core
// code uses. The helpers themselves live in doc/wire.hpp, below net/, so the
// shard router shares them.
#pragma once

#include "doc/wire.hpp"

namespace datablinder::core {

namespace wire = doc::wire;

}  // namespace datablinder::core
