// swarmlab: umbrella public header.
//
// A BitTorrent swarm simulation and measurement laboratory reproducing
// Legout, Urvoy-Keller & Michiardi, "Rarest First and Choke Algorithms
// Are Enough" (IMC 2006). See README.md and DESIGN.md.
#pragma once

#include "core/availability.h"    // piece copy counts & rarest set
#include "core/bitfield.h"        // piece possession
#include "core/choker.h"          // peer selection strategies
#include "core/params.h"          // protocol parameters
#include "core/piece_picker.h"    // piece selection strategies
#include "fault/fault_injector.h" // fault-plan execution
#include "fault/fault_plan.h"     // declarative failure schedules
#include "instrument/analyzers.h"    // figure analyzers
#include "instrument/choke_market.h" // equilibrium analysis (§IV-B.2)
#include "instrument/local_log.h" // instrumented-client log
#include "instrument/metrics.h"   // counters/gauges/histograms/series
#include "instrument/swarm_probe.h" // swarm-scope passive telemetry
#include "instrument/trace.h"     // full event trace + observer fan-out
#include "net/backend.h"          // network-backend registry
#include "net/fluid_network.h"    // flow-level bandwidth model
#include "net/network.h"          // abstract network backend
#include "peer/peer.h"            // the peer state machine
#include "sim/simulation.h"       // discrete-event engine
#include "stats/cdf.h"            // empirical CDFs
#include "stats/correlation.h"
#include "stats/gini.h"
#include "stats/percentile.h"
#include "viz/svg_plot.h"           // SVG figure rendering
#include "model/fluid_model.h"    // Qiu-Srikant analytical baseline
#include "runner/batch_runner.h"  // parallel batch scenario runner
#include "runner/json.h"          // machine-readable report writer
#include "swarm/entropy.h"        // swarm-wide entropy index
#include "swarm/scenario.h"       // Table-I rows & scenario runner
#include "swarm/scenario_catalog.h" // named scenarios & ScenarioBuilder
#include "swarm/swarm.h"          // the torrent fabric
#include "swarm/tracker.h"        // the tracker
#include "wire/bencode.h"         // metainfo encoding
#include "wire/message_stream.h"  // incremental stream decoding
#include "wire/messages.h"        // peer wire protocol codec
#include "wire/metainfo.h"        // .torrent handling
#include "wire/tracker_codec.h"   // tracker HTTP announce codec
#include "wire/sha1.h"            // piece integrity
