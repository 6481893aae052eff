#ifndef CSOD_CORE_CSOD_H_
#define CSOD_CORE_CSOD_H_

/// \file csod.h
/// Umbrella header: the public API of the CSOD library.
///
/// CSOD reproduces "Distributed Outlier Detection using Compressive
/// Sensing" (Yan et al., SIGMOD 2015). Typical use:
///
/// \code
///   csod::core::DetectorOptions options;
///   options.n = dictionary.size();   // global key space
///   options.m = 400;                 // per-node communication budget
///   auto detector =
///       csod::core::DistributedOutlierDetector::Create(options).MoveValue();
///   for (const auto& slice : node_slices) detector->AddSource(slice);
///   auto outliers = detector->Detect(/*k=*/5).MoveValue();
/// \endcode

#include "core/detector.h"
#include "core/windowed_detector.h"
#include "cs/basis_pursuit.h"
#include "cs/bomp.h"
#include "cs/compressor.h"
#include "cs/cosamp.h"
#include "cs/measurement_matrix.h"
#include "cs/omp.h"
#include "dist/adaptive_cs_protocol.h"
#include "dist/all_protocol.h"
#include "dist/cluster.h"
#include "dist/cs_protocol.h"
#include "dist/fault.h"
#include "dist/kplusdelta_protocol.h"
#include "dist/topk_protocols.h"
#include "dist/wire_format.h"
#include "mapreduce/engine.h"
#include "mapreduce/jobs.h"
#include "outlier/aggregates.h"
#include "outlier/answer.h"
#include "outlier/metrics.h"
#include "outlier/outlier.h"
#include "sketch/count_sketch.h"
#include "sketch/hyperloglog.h"
#include "sketch/sketch_protocols.h"
#include "workload/generators.h"
#include "workload/key_dictionary.h"
#include "workload/partitioner.h"

#endif  // CSOD_CORE_CSOD_H_
