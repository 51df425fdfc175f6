// algo/algo.hpp — umbrella header for graph algorithms over gbx.
//
// PageRank and triangle counting over hypersparse matrices — including
// live snapshots of hierarchical traffic matrices, which is how
// analytics::IncrementalEngine and the snapshot benches use them.
#pragma once

#include "algo/pagerank.hpp"
#include "algo/triangle_count.hpp"
