// gen/gen.hpp — umbrella header for workload generation.
#pragma once

#include "gen/kronecker.hpp"
#include "gen/power_law.hpp"
#include "gen/rng.hpp"
#include "gen/uniform.hpp"
