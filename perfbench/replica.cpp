#include "replica.hpp"

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>

#include "alloc/model.hpp"
#include "obs/snapshots.hpp"
#include "runtime/resilience.hpp"
#include "sim/contracts.hpp"

namespace perfbench {

namespace mc = mkos::core;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One repetition's figure of merit plus its telemetry, as in run_once.
struct RepOutcome {
  mkos::workloads::AppResult result;
  mkos::obs::RunLedger ledger;
};

// The statement sequence of core::run_once (experiment.cpp), one span per
// layer call. Any drift from it shows up as a ledger mismatch in the
// harness's replica check.
RepOutcome replica_run_once(mkos::workloads::App& app, const mc::SystemConfig& config,
                            int nodes, std::uint64_t cell_fp, int rep, Tracer* t,
                            int cell) {
  namespace rt = mkos::runtime;
  const rt::Machine machine =
      traced(t, Layer::kMachine, cell, [&] { return config.machine(nodes); });
  rt::Job job = traced(t, Layer::kJob, cell, [&] {
    return rt::Job(machine, app.spec(nodes), mc::rep_seed(cell_fp, rep, /*stream=*/0));
  });
  std::optional<rt::ResilienceManager> resil;
  if (config.resilience.enabled()) {
    resil.emplace(config.resilience, job, mc::rep_seed(cell_fp, rep, /*stream=*/2));
    resil->install_memory_faults();
  }
  traced(t, Layer::kSetup, cell, [&] { app.setup(job); });
  std::optional<mkos::alloc::NodeAllocModel> alloc_model;
  traced(t, Layer::kAllocInit, cell, [&] {
    if (config.alloc.enabled()) {
      alloc_model.emplace(job.node().topo(), job.node().phys(), config.os, config.alloc,
                          job.lane_count());
    }
  });
  rt::MpiWorld world = traced(t, Layer::kWorld, cell, [&] {
    return rt::MpiWorld(job, mc::rep_seed(cell_fp, rep, /*stream=*/1));
  });
  if (resil) world.attach_resilience(&*resil);
  if (alloc_model) world.attach_alloc(&*alloc_model);
  RepOutcome out;
  out.result = traced(t, Layer::kRun, cell, [&] { return app.run(job, world); });
  traced(t, Layer::kAllocDrain, cell, [&] {
    if (alloc_model) alloc_model->drain_lanes();
  });
  traced(t, Layer::kRecord, cell, [&] {
    mkos::obs::record_world(out.ledger, world);
    mkos::obs::record_job(out.ledger, job);
    if (resil) mkos::obs::record_faults(out.ledger, resil->counters());
    if (alloc_model) mkos::obs::record_alloc(out.ledger, alloc_model->counters());
    out.ledger.observe("run.fom", out.result.fom);
  });
  return out;
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kCell: return "core.cell";
    case Layer::kMachine: return "hw.machine";
    case Layer::kJob: return "kernel.job";
    case Layer::kSetup: return "workloads.setup";
    case Layer::kAllocInit: return "alloc.init";
    case Layer::kWorld: return "runtime.world";
    case Layer::kRun: return "workloads.run";
    case Layer::kAllocDrain: return "alloc.drain";
    case Layer::kRecord: return "obs.record";
    case Layer::kMerge: return "obs.merge";
    case Layer::kToJson: return "obs.to_json";
    case Layer::kStoreSave: return "core.store_save";
    case Layer::kStoreLoad: return "core.store_load";
  }
  return "unknown";
}

Tracer::Tracer() { spans_.reserve(1 << 16); }

std::int32_t Tracer::open(Layer layer, int cell) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{open_.empty() ? -1 : open_.back(), layer, pass_, cell, now_ns(), 0});
  open_.push_back(id);
  return id;
}

void Tracer::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  MKOS_EXPECTS(!open_.empty() && open_.back() == id);
  open_.pop_back();
}

bool Tracer::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fprintf(f, "pass\tid\tparent\tlayer\tcell\tstart_ns\tend_ns\n") > 0;
  for (std::size_t i = 0; ok && i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    ok = std::fprintf(f, "%d\t%zu\t%d\t%s\t%d\t%lld\t%lld\n", s.pass, i, s.parent,
                      layer_name(s.layer), s.cell, static_cast<long long>(s.start_ns),
                      static_cast<long long>(s.end_ns)) > 0;
  }
  return std::fclose(f) == 0 && ok;
}

mc::RunStats replica_run_app(std::string_view app_name, const mc::SystemConfig& config,
                             int nodes, int reps, std::uint64_t seed, Tracer* tracer,
                             int cell, std::uint64_t* reps_simulated) {
  const std::unique_ptr<mkos::workloads::App> app = mkos::workloads::make_app(app_name);
  MKOS_EXPECTS(app != nullptr && reps >= 1);
  const std::uint64_t fp = mc::cell_fingerprint(app->name(), config, nodes, seed);
  std::vector<RepOutcome> outcomes;
  outcomes.reserve(static_cast<std::size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    outcomes.push_back(replica_run_once(*app, config, nodes, fp, rep, tracer, cell));
    if (reps_simulated != nullptr) ++*reps_simulated;
  }
  return traced(tracer, Layer::kMerge, cell, [&] {
    mc::RunStats rs;
    for (const RepOutcome& o : outcomes) {
      rs.fom.add(o.result.fom);
      rs.unit = o.result.unit;
      rs.ledger.merge(o.ledger);
    }
    return rs;
  });
}

std::vector<mc::CellResult> ReplicaCampaign::run(const mc::CampaignSpec& spec,
                                                 int first_cell) {
  std::vector<mc::CellResult> results;
  int cell = first_cell;
  for (const std::string& app_name : spec.apps) {
    const auto probe = mkos::workloads::make_app(app_name);
    MKOS_EXPECTS(probe != nullptr);
    const std::vector<int> counts = spec.nodes.empty() ? probe->node_counts() : spec.nodes;
    for (const mc::SystemConfig& config : spec.configs) {
      const std::string digest = config.digest();
      for (const int nodes : counts) {
        if (nodes > spec.max_nodes) continue;
        const SpanScope cell_span(tracer_, Layer::kCell, cell);
        mc::CellResult out{app_name, config.label(), config.fingerprint(), nodes,
                           mc::RunStats{}, false, 0.0};
        const std::uint64_t key =
            mc::cell_cache_key(app_name, config, nodes, spec.reps, spec.seed);
        const mc::CellKey id{app_name, digest, nodes, spec.reps, spec.seed};
        ++cells_;
        const auto hit = memory_.find(key);
        if (hit != memory_.end() && hit->second.id == id) {
          out.stats = hit->second.stats;
          out.from_cache = true;
          ++memory_hits_;
          results.push_back(std::move(out));
          ++cell;
          continue;
        }
        std::optional<mc::RunStats> loaded;
        if (store_ != nullptr) {
          loaded = traced(tracer_, Layer::kStoreLoad, cell, [&] { return store_->load(key, id); });
        }
        if (loaded) {
          out.stats = std::move(*loaded);
          out.from_cache = true;
        } else {
          out.stats = replica_run_app(app_name, config, nodes, spec.reps, spec.seed,
                                      tracer_, cell, &reps_simulated_);
        }
        memory_.insert_or_assign(key, Entry{id, out.stats});
        results.push_back(std::move(out));
        ++cell;
      }
    }
  }
  return results;
}

}  // namespace perfbench
