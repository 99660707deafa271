//===-- support/EnvVar.h - Environment variable parsing --------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Typed environment variable access. The miniSYCL runtime is configured
/// the way the paper configures DPC++: through environment variables
/// (Section 4.3 uses DPCPP_CPU_PLACES=numa_domains; we use the MINISYCL_
/// prefix, see minisycl/queue.h).
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_SUPPORT_ENVVAR_H
#define HICHI_SUPPORT_ENVVAR_H

#include <optional>
#include <string>

namespace hichi {

/// \returns the value of environment variable \p Name, or std::nullopt if
/// it is unset.
std::optional<std::string> getEnvString(const char *Name);

/// \returns the value of \p Name with surrounding whitespace trimmed, or
/// std::nullopt if unset or blank — the right accessor for name-valued
/// knobs (backend names, paths) where a stray space from an `export`
/// line would otherwise fail lookups silently.
std::optional<std::string> getEnvTrimmed(const char *Name);

/// \returns the integer value of \p Name (surrounding whitespace
/// trimmed), or std::nullopt if unset or not parseable as a base-10
/// integer.
std::optional<long> getEnvInt(const char *Name);

/// \returns the boolean value of \p Name: "1"/"true"/"on"/"yes" are
/// true, "0"/"false"/"off"/"no" are false (case-insensitive, surrounding
/// whitespace trimmed), anything else — including unset — is
/// std::nullopt so the caller's default applies. The one parser for
/// every boolean knob (MINISYCL_ASYNC_SUBMIT, …), so falsy
/// spellings behave uniformly; knob precedence is always
/// CLI flag > environment > built-in default.
std::optional<bool> getEnvBool(const char *Name);

/// \returns true iff \p Name is set to exactly \p Value (case-sensitive,
/// matching how DPC++ treats DPCPP_CPU_PLACES).
bool envEquals(const char *Name, const char *Value);

} // namespace hichi

#endif // HICHI_SUPPORT_ENVVAR_H
