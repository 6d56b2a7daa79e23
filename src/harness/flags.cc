#include "src/harness/flags.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "src/util/assert.h"

namespace flashsim {

namespace {

bool ParseUint64Value(const std::string& text, uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    return false;
  }
  *out = static_cast<uint64_t>(value);
  return true;
}

bool ParseDoubleValue(const std::string& text, double* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

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

void FlagParser::AddInt(const std::string& name, const std::string& help, int* out) {
  Flag flag;
  flag.name = name;
  flag.value_hint = "N";
  flag.help = help;
  flag.takes_value = true;
  flag.handler = [out](const std::string& value) {
    uint64_t parsed = 0;
    if (!ParseUint64Value(value, &parsed)) {
      return false;
    }
    *out = static_cast<int>(parsed);
    return true;
  };
  Register(std::move(flag));
}

void FlagParser::AddUint64(const std::string& name, const std::string& help, uint64_t* out) {
  Flag flag;
  flag.name = name;
  flag.value_hint = "N";
  flag.help = help;
  flag.takes_value = true;
  flag.handler = [out](const std::string& value) { return ParseUint64Value(value, out); };
  Register(std::move(flag));
}

void FlagParser::AddDouble(const std::string& name, const std::string& help, double* out) {
  Flag flag;
  flag.name = name;
  flag.value_hint = "N";
  flag.help = help;
  flag.takes_value = true;
  flag.handler = [out](const std::string& value) { return ParseDoubleValue(value, out); };
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

}  // namespace flashsim
