//===-- core/Core.h - Umbrella header for the core library -----*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Umbrella header for the particle/pusher core: include this to get
/// particles, ensembles (AoS/SoA) and the Boris/Vay/Higuera-Cary
/// pushers. The execution backends that run them live in src/exec/
/// (exec/BackendRegistry.h, exec/StepLoop.h).
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_CORE_CORE_H
#define HICHI_CORE_CORE_H

#include "core/BatchPusher.h"
#include "core/BorisPusher.h"
#include "core/Checkpoint.h"
#include "core/EnsembleInit.h"
#include "core/EnsembleOps.h"
#include "core/FieldSample.h"
#include "core/Particle.h"
#include "core/ParticleArray.h"
#include "core/ParticleTypes.h"

#endif // HICHI_CORE_CORE_H
