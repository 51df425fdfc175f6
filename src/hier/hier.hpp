// hier/hier.hpp — umbrella header for hierarchical hypersparse matrices.
#pragma once

#include "hier/checkpoint.hpp"
#include "hier/cut_policy.hpp"
#include "hier/delta.hpp"
#include "hier/hier_matrix.hpp"
#include "hier/instance_array.hpp"
#include "hier/memory_governor.hpp"
#include "hier/parallel_stream.hpp"
#include "hier/partition.hpp"
#include "hier/snapshot.hpp"
#include "hier/stats.hpp"
#include "hier/tier.hpp"
