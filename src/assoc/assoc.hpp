// assoc/assoc.hpp — umbrella header for D4M associative arrays.
#pragma once

#include "assoc/assoc_array.hpp"
#include "assoc/hier_assoc.hpp"
#include "assoc/string_pool.hpp"
