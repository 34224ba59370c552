/**
 * @file
 * Umbrella header for the Hermes library.
 *
 * Pulls in the full public API:
 *  - vector substrate:   vecstore, quant, cluster, index
 *  - workload synthesis: workload, eval
 *  - the Hermes engine:  core (distributed store + search strategies)
 *  - systems analysis:   sim (cost models, multi-node tool, pipeline sim)
 *  - RAG serving:        rag (encoder, datastore, RagSystem facade)
 *  - observability:      obs (metrics registry, per-query tracing)
 */

#pragma once

#include "cluster/imbalance.hpp"
#include "cluster/kmeans.hpp"
#include "cluster/partitioner.hpp"
#include "core/config.hpp"
#include "core/distributed_store.hpp"
#include "core/manifest.hpp"
#include "core/search_strategy.hpp"
#include "eval/ground_truth.hpp"
#include "eval/metrics.hpp"
#include "index/ann_index.hpp"
#include "obs/exporter.hpp"
#include "obs/obs.hpp"
#include "obs/perf.hpp"
#include "index/flat_index.hpp"
#include "index/hnsw_index.hpp"
#include "index/ivf_index.hpp"
#include "quant/codec.hpp"
#include "rag/analysis.hpp"
#include "rag/datastore.hpp"
#include "rag/encoder.hpp"
#include "rag/perplexity.hpp"
#include "rag/rag_system.hpp"
#include "rag/reranker.hpp"
#include "rag/synth_text.hpp"
#include "net/frame.hpp"
#include "net/net.hpp"
#include "serve/broker.hpp"
#include "serve/node.hpp"
#include "serve/node_client.hpp"
#include "serve/remote_node.hpp"
#include "serve/rpc.hpp"
#include "serve/shard_server.hpp"
#include "sim/cost_model.hpp"
#include "sim/hardware.hpp"
#include "sim/node_sim.hpp"
#include "sim/pipeline.hpp"
#include "sim/queue_sim.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "vecstore/distance.hpp"
#include "vecstore/matrix.hpp"
#include "vecstore/topk.hpp"
#include "workload/corpus.hpp"
#include "workload/trace.hpp"
