// Workload registry: factories by name + the Fig. 4 suite.

#include "workloads/app.hpp"

namespace mkos::workloads {

std::vector<std::unique_ptr<App>> make_fig4_apps() {
  std::vector<std::unique_ptr<App>> apps;
  for (const std::string& name : fig4_app_names()) apps.push_back(make_app(name));
  return apps;
}

std::vector<std::string> fig4_app_names() {
  // Fig. 4 order: AMG2013, CCS-QCD, GeoFEM, HPCG, LAMMPS, MILC, MiniFE
  // ("We left out Lulesh 2.0 since it uses different node counts").
  return {"AMG2013", "CCS-QCD", "GeoFEM", "HPCG", "LAMMPS", "MILC", "MiniFE"};
}

std::vector<std::string> registry_names() {
  std::vector<std::string> names = fig4_app_names();
  names.insert(names.begin() + 5, "Lulesh2.0");  // alphabetical slot
  // XSBench placement variants sort after MiniFE; appended to keep the
  // long-standing prefix (and everything keyed to its order) stable.
  names.emplace_back("XSBench/first-touch");
  names.emplace_back("XSBench/interleave");
  names.emplace_back("XSBench/mcdram");
  return names;
}

std::unique_ptr<App> make_app(std::string_view name) {
  if (name == "AMG2013") return make_amg2013();
  if (name == "CCS-QCD") return make_ccs_qcd();
  if (name == "GeoFEM") return make_geofem();
  if (name == "HPCG") return make_hpcg();
  if (name == "LAMMPS") return make_lammps();
  if (name == "Lulesh2.0") return make_lulesh();
  if (name == "MILC") return make_milc();
  if (name == "MiniFE") return make_minife();
  if (name == "XSBench/first-touch") return make_xsbench_first_touch();
  if (name == "XSBench/interleave") return make_xsbench_interleave();
  if (name == "XSBench/mcdram") return make_xsbench_mcdram();
  return nullptr;
}

}  // namespace mkos::workloads
