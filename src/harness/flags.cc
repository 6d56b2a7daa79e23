#include "src/harness/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "src/core/experiment.h"
#include "src/util/assert.h"

namespace flashsim {

namespace {

// Plain decimal digits only: strtoull alone would wrap "-1" to 2^64 - 1 and
// saturate an overflowing value instead of refusing it.
bool ParseUint64InRange(const std::string& text, uint64_t lo, uint64_t hi, uint64_t* out) {
  if (text.empty() || text[0] < '0' || text[0] > '9') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE || value < lo || value > hi) {
    return false;
  }
  *out = static_cast<uint64_t>(value);
  return true;
}

}  // namespace

bool ParseInRange(const std::string& value, double lo, double hi, double* out) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || end == nullptr || *end != '\0' || !std::isfinite(parsed) ||
      parsed < lo || parsed > hi) {
    return false;
  }
  *out = parsed;
  return true;
}

void FlagParser::Register(Flag flag) {
  FLASHSIM_CHECK(Find(flag.name) == nullptr);
  flags_.push_back(std::move(flag));
}

void FlagParser::AddBool(const std::string& name, const std::string& help, bool* out) {
  Flag flag;
  flag.name = name;
  flag.help = help;
  flag.takes_value = false;
  flag.handler = [out](const std::string&) {
    *out = true;
    return true;
  };
  Register(std::move(flag));
}

void FlagParser::AddInt(const std::string& name, const std::string& help, int* out, int lo,
                        int hi) {
  FLASHSIM_CHECK(0 <= lo && lo <= hi);
  Flag flag;
  flag.name = name;
  flag.value_hint = "N";
  flag.help = help;
  flag.takes_value = true;
  flag.handler = [out, lo, hi](const std::string& value) {
    uint64_t parsed = 0;
    if (!ParseUint64InRange(value, static_cast<uint64_t>(lo), static_cast<uint64_t>(hi),
                            &parsed)) {
      return false;
    }
    *out = static_cast<int>(parsed);
    return true;
  };
  Register(std::move(flag));
}

void FlagParser::AddUint64(const std::string& name, const std::string& help, uint64_t* out,
                           uint64_t lo, uint64_t hi) {
  Flag flag;
  flag.name = name;
  flag.value_hint = "N";
  flag.help = help;
  flag.takes_value = true;
  flag.handler = [out, lo, hi](const std::string& value) {
    return ParseUint64InRange(value, lo, hi, out);
  };
  Register(std::move(flag));
}

void FlagParser::AddDouble(const std::string& name, const std::string& help, double* out,
                           double lo, double hi) {
  Flag flag;
  flag.name = name;
  flag.value_hint = "N";
  flag.help = help;
  flag.takes_value = true;
  flag.handler = [out, lo, hi](const std::string& value) {
    return ParseInRange(value, lo, hi, out);
  };
  Register(std::move(flag));
}

void FlagParser::AddString(const std::string& name, const std::string& help, std::string* out) {
  Flag flag;
  flag.name = name;
  flag.value_hint = "S";
  flag.help = help;
  flag.takes_value = true;
  flag.handler = [out](const std::string& value) {
    *out = value;
    return true;
  };
  Register(std::move(flag));
}

void FlagParser::AddCustom(const std::string& name, const std::string& value_hint,
                           const std::string& help,
                           std::function<bool(const std::string&)> handler) {
  Flag flag;
  flag.name = name;
  flag.value_hint = value_hint;
  flag.help = help;
  flag.takes_value = !value_hint.empty();
  flag.handler = std::move(handler);
  Register(std::move(flag));
}

const FlagParser::Flag* FlagParser::Find(const std::string& name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) {
      return &flag;
    }
  }
  return nullptr;
}

bool FlagParser::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() < 3 || arg[0] != '-' || arg[1] != '-') {
      std::fprintf(stderr, "%s: unrecognized argument: %s\n", argv[0], arg.c_str());
      PrintUsage(argv[0], std::cerr);
      return false;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
    const Flag* flag = Find(name);
    if (flag == nullptr) {
      std::fprintf(stderr, "%s: unknown flag: --%s\n", argv[0], name.c_str());
      PrintUsage(argv[0], std::cerr);
      return false;
    }
    if (flag->takes_value != (eq != std::string::npos)) {
      std::fprintf(stderr, "%s: flag --%s %s a value\n", argv[0], name.c_str(),
                   flag->takes_value ? "requires" : "does not take");
      PrintUsage(argv[0], std::cerr);
      return false;
    }
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (!flag->handler(value)) {
      std::fprintf(stderr, "%s: bad value for --%s: %s\n", argv[0], name.c_str(), value.c_str());
      PrintUsage(argv[0], std::cerr);
      return false;
    }
  }
  return true;
}

void FlagParser::PrintUsage(const std::string& program, std::ostream& os) const {
  os << "usage: " << program;
  for (const Flag& flag : flags_) {
    os << " [--" << flag.name;
    if (flag.takes_value) {
      os << "=" << flag.value_hint;
    }
    os << "]";
  }
  os << "\n";
  for (const Flag& flag : flags_) {
    os << "  --" << flag.name;
    if (flag.takes_value) {
      os << "=" << flag.value_hint;
    }
    os << "  " << flag.help << "\n";
  }
}

void FlagParser::ParseOrExit(int argc, char** argv) {
  if (!Parse(argc, argv)) {
    std::exit(2);
  }
}

void AddCapacityFlag(FlagParser& parser, const std::string& name, const std::string& help,
                     uint64_t unit_bytes, double* out) {
  parser.AddCustom(name, "N", help, [unit_bytes, out](const std::string& value) {
    double units = 0.0;
    if (!ParseInRange(value, 0.0, std::numeric_limits<double>::max(), &units) ||
        !CapacityFitsBytes(units * static_cast<double>(unit_bytes))) {
      return false;
    }
    *out = units;
    return true;
  });
}

}  // namespace flashsim
