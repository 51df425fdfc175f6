// analytics/analytics.hpp — umbrella header for traffic analytics.
#pragma once

#include "analytics/background.hpp"
#include "analytics/incremental.hpp"
#include "analytics/traffic.hpp"
