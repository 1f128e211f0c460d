// plp_serve — interactive next-location serving loop over stdin/stdout.
//
//   plp_serve --model=model.plpm [--threads=4] [--k=10]
//             [--capacity=100000] [--history_len=16] [--max_queue=1024]
//             [--shards=1] [--format=f32] [--ivf=false] [--nprobe=0]
//
// `--model` accepts a full model or an embeddings-only deployment
// artifact. `--shards` runs the sharded engine (requests route by user
// id; sessions and metrics are per-shard, STATS aggregates them).
// `--format` stores the snapshot as f32 (exact, the default) or fp16 (any
// other value is refused); `--ivf` builds the candidate-pruning index at
// load and `--nprobe` overrides its probe width (0 = the index default,
// which is the recall-gated setting). One request per input line, one
// response line per request:
//
//   REC <user_id> <location_id> [k]   append a check-in to the user's
//                                     session and recommend top-k
//   HIST <l1,l2,...> [k]              stateless request with an explicit
//                                     history (no session touched)
//   SWAP <path> [version]             hot-swap to a new model file; live
//                                     requests keep the old snapshot
//   STATS                             dump the metrics table
//   QUIT                              drain and exit
//
// Successful recommendations print `OK v<version> loc:score ...`
// (best first); failures print `ERR <CODE>: <message>` and the loop
// continues — per-request errors never take the server down. Wire-level
// garbage gets the same treatment: unknown commands, unparseable fields,
// oversized lines (> 64 KiB) and oversized id lists each produce one
// structured `ERR INVALID_ARGUMENT: ...` line and bump the
// `protocol_errors` counter instead of desynchronizing the loop. When the
// engine sheds load (`--max_queue` admission bound), the response is
// `ERR OVERLOADED: ...` and counts as `requests_overloaded`.
//
// SIGTERM/SIGINT drain gracefully: the loop stops accepting input, any
// request already handed to the engine finishes (engine teardown joins
// its workers), the final STATS table goes to stderr, and the process
// exits 0 — so an orchestrator's stop is indistinguishable from QUIT.

#include <csignal>

#include <atomic>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "serve/sharded_engine.h"

namespace {

using plp::serve::Request;
using plp::serve::Response;
using plp::serve::ScoredLocation;

// Wire-level bounds: a line (and so an id list) a client can send is
// capped so hostile or corrupted input degrades into one structured error
// instead of an unbounded allocation.
constexpr size_t kMaxLineBytes = 64 * 1024;
constexpr size_t kMaxHistoryIds = 4096;

// Set from the SIGTERM/SIGINT handler; the accept loop checks it between
// lines. The handlers are installed WITHOUT SA_RESTART so a blocking
// stdin read returns EINTR instead of resuming — a signal that lands
// mid-getline still drains promptly.
volatile std::sig_atomic_t g_drain_requested = 0;

void RequestDrain(int /*signum*/) { g_drain_requested = 1; }

void InstallDrainHandlers() {
  struct sigaction action = {};
  action.sa_handler = RequestDrain;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

void PrintResponse(const Response& response) {
  if (!response.status.ok()) {
    if (response.status.code() == plp::StatusCode::kResourceExhausted) {
      // Shed by the engine's admission bound, not a caller mistake.
      std::cout << "ERR OVERLOADED: " << response.status.message() << "\n";
      return;
    }
    std::cout << "ERR " << response.status.ToString() << "\n";
    return;
  }
  std::cout << "OK v" << response.model_version;
  for (const ScoredLocation& s : response.topk) {
    std::printf(" %d:%.6f", s.location, static_cast<double>(s.score));
  }
  std::cout << "\n";
}

std::vector<int32_t> ParseIdList(const std::string& csv) {
  std::vector<int32_t> ids;
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (ids.size() >= kMaxHistoryIds) return {};
    try {
      ids.push_back(static_cast<int32_t>(std::stol(token)));
    } catch (...) {
      return {};
    }
  }
  return ids;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_or = plp::FlagParser::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::cerr << "error: " << flags_or.status() << "\n";
    return 1;
  }
  const plp::FlagParser& flags = flags_or.value();
  const std::string model_path = flags.GetString("model", "");
  if (model_path.empty()) {
    std::cerr << "usage: plp_serve --model=model.plpm [--threads=4] "
                 "[--k=10] [--capacity=100000] [--history_len=16] "
                 "[--max_queue=1024] [--shards=1] [--format=f32] "
                 "[--ivf=false] [--nprobe=0]\n";
    return 2;
  }

  plp::serve::ShardedConfig config;
  config.num_shards = static_cast<int32_t>(flags.GetInt("shards", 1));
  config.shard.num_threads = static_cast<int32_t>(flags.GetInt("threads", 4));
  config.shard.sessions.capacity =
      static_cast<size_t>(flags.GetInt("capacity", 100000));
  config.shard.sessions.history_length =
      static_cast<int32_t>(flags.GetInt("history_len", 16));
  config.shard.max_queue =
      static_cast<int32_t>(flags.GetInt("max_queue", 1024));
  config.shard.nprobe = static_cast<int32_t>(flags.GetInt("nprobe", 0));
  config.shard.snapshot.build_ivf = flags.GetBool("ivf", false);
  const int32_t default_k = static_cast<int32_t>(flags.GetInt("k", 10));
  {
    auto format_or =
        plp::serve::ParseSnapshotFormat(flags.GetString("format", "f32"));
    if (!format_or.ok()) {
      std::cerr << "error: " << format_or.status() << "\n";
      return 2;
    }
    config.shard.snapshot.format = format_or.value();
  }

  plp::serve::ShardedServingEngine engine(config);
  uint64_t next_version = 1;
  if (plp::Status s = engine.PublishFile(model_path, next_version);
      !s.ok()) {
    std::cerr << "error: " << s << "\n";
    return 1;
  }
  {
    // Every shard holds an identical replica; shard 0 speaks for all.
    const auto snapshot = engine.shard(0).registry().Current();
    std::cerr << "serving " << model_path << ": "
              << snapshot->num_locations() << " locations, dim "
              << snapshot->dim() << ", format "
              << plp::serve::FormatName(snapshot->format()) << ", checksum "
              << std::hex << snapshot->checksum() << std::dec << ", "
              << snapshot->memory_bytes() / 1024 << " KiB resident, "
              << engine.num_shards() << " shard(s)\n";
  }

  // One structured error line per protocol violation; the loop always
  // stays line-synchronized with the client. Protocol errors happen
  // before any request exists to route, so they count on shard 0 — the
  // aggregated STATS view sums shards and still shows them all.
  auto protocol_error = [&engine](const std::string& message) {
    engine.shard(0).metrics().protocol_errors.fetch_add(
        1, std::memory_order_relaxed);
    std::cout << "ERR INVALID_ARGUMENT: " << message << "\n";
  };

  InstallDrainHandlers();
  std::string line;
  while (!g_drain_requested && std::getline(std::cin, line)) {
    if (g_drain_requested) break;  // signal landed mid-line
    if (line.size() > kMaxLineBytes) {
      protocol_error("line exceeds " + std::to_string(kMaxLineBytes) +
                     " bytes");
      continue;
    }
    std::istringstream in(line);
    std::string command;
    in >> command;
    if (command.empty()) continue;

    if (command == "QUIT") break;

    if (command == "STATS") {
      engine.PrintStats(std::cout);
      continue;
    }

    if (command == "SWAP") {
      std::string path;
      in >> path;
      uint64_t version = next_version + 1;
      // A failed extraction would zero `version`; parse into a temp.
      if (uint64_t v = 0; in >> v) version = v;
      if (path.empty()) {
        protocol_error("usage: SWAP <path> [version]");
        continue;
      }
      if (plp::Status s = engine.PublishFile(path, version); !s.ok()) {
        std::cout << "ERR " << s.ToString() << "\n";
        continue;
      }
      next_version = version;
      const auto snapshot = engine.shard(0).registry().Current();
      std::cout << "OK swapped to v" << snapshot->version() << " checksum "
                << std::hex << snapshot->checksum() << std::dec
                << " (generation "
                << engine.shard(0).registry().generation() << ")\n";
      continue;
    }

    if (command == "REC") {
      Request request;
      request.k = default_k;
      if (!(in >> request.user_id >> request.new_checkin)) {
        protocol_error("usage: REC <user> <loc> [k]");
        continue;
      }
      if (int32_t k = 0; in >> k) request.k = k;
      PrintResponse(engine.Recommend(request));
      continue;
    }

    if (command == "HIST") {
      std::string csv;
      if (!(in >> csv)) {
        protocol_error("usage: HIST <l1,l2,...> [k]");
        continue;
      }
      Request request;
      request.k = default_k;
      request.history = ParseIdList(csv);
      if (request.history.empty()) {
        protocol_error("bad id list (unparseable, empty, or more than " +
                       std::to_string(kMaxHistoryIds) + " ids)");
        continue;
      }
      if (int32_t k = 0; in >> k) request.k = k;
      PrintResponse(engine.Recommend(request));
      continue;
    }

    protocol_error("unknown command '" + command + "'");
  }
  if (g_drain_requested) {
    std::cout.flush();
    std::cerr << "drain: signal received, responses flushed, exiting\n";
  }
  engine.PrintStats(std::cerr);
  return 0;
}
