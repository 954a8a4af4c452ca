// Binary (de)serialization of a parameter set. Format:
//   magic "MIRG" | u32 version | u64 param_count |
//   per param: u32 name_len | name bytes | u64 rows | u64 cols | f32 data
// Loading validates names and shapes against the destination model, so a
// checkpoint can only be restored into the architecture that produced it.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace mirage::nn {

/// Serialize parameter values to a byte buffer.
std::vector<char> serialize_params(const std::vector<Parameter*>& params);

/// Restore values in place; returns false on any mismatch (nothing is
/// partially applied on failure).
bool deserialize_params(const std::vector<char>& bytes, const std::vector<Parameter*>& params);

}  // namespace mirage::nn
