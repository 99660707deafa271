//===-- serve/JobSpec.h - Simulation job descriptions -----------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer's job description: one JSON object per simulation
/// request — scenario, grid, step count, physics knobs, and output
/// requests. A job-spec file is either a top-level array of jobs or an
/// object with a "jobs" array:
///
/// \code{.json}
///   {"jobs": [
///     {"name": "warm-16", "tenant": "team-a", "scenario": "langmuir",
///      "nx": 16, "per_cell": 2, "steps": 24, "amplitude": 0.02,
///      "solver": "fdtd", "graph": true, "energy_every": 8}
///   ]}
/// \endcode
///
/// Every field except "name" has a default; unknown fields are ignored
/// (forward compatibility). syntheticJobMix() generates the
/// deterministic mixed-size multi-tenant stream the CI smoke, the
/// scheduler tests and bench_serve all share.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_SERVE_JOBSPEC_H
#define HICHI_SERVE_JOBSPEC_H

#include "support/Json.h"

#include <string>
#include <utility>
#include <vector>

namespace hichi {
namespace serve {

/// One simulation request. The scenario is the parameterized cold
/// Langmuir oscillation (the repo's canonical full-PIC configuration —
/// examples/pic_langmuir.cpp); grids, densities and step counts vary
/// per job.
struct JobSpec {
  std::string Name;               ///< unique job id (required)
  std::string Tenant = "default"; ///< accounting/isolation label
  std::string Scenario = "langmuir";
  int Nx = 32, Ny = 4, Nz = 4;    ///< grid cells
  int PerCell = 4;                ///< macro-particles per cell
  int Steps = 48;                 ///< total time steps requested
  double Amplitude = 0.02;        ///< velocity-perturbation amplitude
  std::string Solver = "fdtd";    ///< "fdtd" | "spectral"
  int SortEvery = 100;            ///< locality sort period (0 = off)
  bool UseGraph = true;           ///< capture + replay the step DAG
  int EnergyEvery = 0;            ///< stream field energy every N steps
};

/// Basic validity: a name, positive shape, positive steps. \returns
/// false with a reason in \p Error.
inline bool validateJobSpec(const JobSpec &Spec, std::string *Error) {
  auto Fail = [&](const std::string &Why) {
    if (Error)
      *Error = "job '" + Spec.Name + "': " + Why;
    return false;
  };
  if (Spec.Name.empty())
    return Fail("missing \"name\"");
  if (Spec.Scenario != "langmuir")
    return Fail("unknown scenario '" + Spec.Scenario + "'");
  if (Spec.Solver != "fdtd" && Spec.Solver != "spectral")
    return Fail("unknown solver '" + Spec.Solver + "'");
  if (Spec.Nx <= 0 || Spec.Ny <= 0 || Spec.Nz <= 0)
    return Fail("grid extents must be positive");
  if (Spec.PerCell <= 0)
    return Fail("per_cell must be positive");
  if (Spec.Steps <= 0)
    return Fail("steps must be positive");
  return true;
}

/// Parses one job object (already validated to be a JSON object) into
/// \p Spec; absent fields keep JobSpec's defaults. \returns false with a
/// reason in \p Error when an integer field holds a fraction or a value
/// outside int.
inline bool jobSpecFromJson(const json::Value &V, JobSpec &Spec,
                            std::string *Error) {
  Spec = JobSpec{};
  Spec.Name = V.stringOr("name", "");
  Spec.Tenant = V.stringOr("tenant", Spec.Tenant);
  Spec.Scenario = V.stringOr("scenario", Spec.Scenario);
  Spec.Amplitude = V.numberOr("amplitude", Spec.Amplitude);
  Spec.Solver = V.stringOr("solver", Spec.Solver);
  Spec.UseGraph = V.boolOr("graph", Spec.UseGraph);
  const std::pair<const char *, int *> IntFields[] = {
      {"nx", &Spec.Nx},         {"ny", &Spec.Ny},
      {"nz", &Spec.Nz},         {"per_cell", &Spec.PerCell},
      {"steps", &Spec.Steps},   {"sort_every", &Spec.SortEvery},
      {"energy_every", &Spec.EnergyEvery}};
  for (const auto &Field : IntFields)
    if (!V.readInt(Field.first, *Field.second, Error)) {
      if (Error)
        *Error = "job '" + Spec.Name + "': " + *Error;
      return false;
    }
  return true;
}

/// Parses a job-spec document (array of jobs, or object with a "jobs"
/// array). Duplicate names and invalid specs are errors. \returns false
/// with a reason in \p Error.
inline bool parseJobSpecs(const json::Value &Doc, std::vector<JobSpec> &Out,
                          std::string *Error) {
  const json::Value *Jobs = Doc.isArray() ? &Doc : Doc.find("jobs");
  if (!Jobs || !Jobs->isArray()) {
    if (Error)
      *Error = "job-spec document must be an array or have a \"jobs\" array";
    return false;
  }
  Out.clear();
  for (const json::Value &Entry : Jobs->Items) {
    if (!Entry.isObject()) {
      if (Error)
        *Error = "every job entry must be an object";
      return false;
    }
    JobSpec Spec;
    if (!jobSpecFromJson(Entry, Spec, Error) || !validateJobSpec(Spec, Error))
      return false;
    for (const JobSpec &Earlier : Out)
      if (Earlier.Name == Spec.Name) {
        if (Error)
          *Error = "duplicate job name '" + Spec.Name + "'";
        return false;
      }
    Out.push_back(std::move(Spec));
  }
  if (Out.empty()) {
    if (Error)
      *Error = "job-spec document contains no jobs";
    return false;
  }
  return true;
}

/// Reads and parses a job-spec file. \returns false with a reason.
inline bool loadJobSpecs(const std::string &Path, std::vector<JobSpec> &Out,
                         std::string *Error) {
  json::Value Doc;
  if (!json::parseFile(Path, Doc, Error))
    return false;
  if (!parseJobSpecs(Doc, Out, Error)) {
    if (Error)
      *Error = Path + ": " + *Error;
    return false;
  }
  return true;
}

/// The deterministic synthetic mixed-size job stream: \p Count jobs
/// named job-0000.., spread round-robin over \p Tenants tenants, grid
/// and step counts cycling through small/medium/large so short and long
/// jobs interleave (the fairness and concurrency scenarios the scheduler
/// tests exercise). Same (Count, Tenants) in, same stream out — CI
/// compares served hashes against standalone reruns of the same mix.
inline std::vector<JobSpec> syntheticJobMix(int Count, int Tenants) {
  static const int NxChoices[3] = {16, 24, 32};
  static const int PerCellChoices[2] = {2, 4};
  static const int StepChoices[3] = {24, 36, 48};
  std::vector<JobSpec> Jobs;
  Jobs.reserve(std::size_t(Count > 0 ? Count : 0));
  for (int I = 0; I < Count; ++I) {
    JobSpec Spec;
    char Name[32];
    std::snprintf(Name, sizeof(Name), "job-%04d", I);
    Spec.Name = Name;
    Spec.Tenant = "tenant-" + std::to_string(Tenants > 0 ? I % Tenants : 0);
    Spec.Nx = NxChoices[I % 3];
    Spec.PerCell = PerCellChoices[I % 2];
    Spec.Steps = StepChoices[(I / 2) % 3];
    Jobs.push_back(std::move(Spec));
  }
  return Jobs;
}

} // namespace serve
} // namespace hichi

#endif // HICHI_SERVE_JOBSPEC_H
