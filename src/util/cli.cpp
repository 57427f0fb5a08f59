#include "util/cli.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace ncsw::util {

Cli::Cli(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void Cli::add_int(const std::string& name, std::int64_t def,
                  std::string help) {
  flags_[name] =
      Flag{Kind::kInt, std::to_string(def), std::to_string(def), std::move(help)};
}

void Cli::add_double(const std::string& name, double def, std::string help) {
  std::ostringstream os;
  os << def;
  flags_[name] = Flag{Kind::kDouble, os.str(), os.str(), std::move(help)};
}

void Cli::add_string(const std::string& name, std::string def,
                     std::string help) {
  flags_[name] = Flag{Kind::kString, def, def, std::move(help)};
}

void Cli::add_bool(const std::string& name, bool def, std::string help) {
  const std::string v = def ? "true" : "false";
  flags_[name] = Flag{Kind::kBool, v, v, std::move(help)};
}

void Cli::set_value(const std::string& name, const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    throw std::runtime_error("unknown flag: --" + name + "\n" + help());
  }
  switch (it->second.kind) {
    case Kind::kInt: {
      std::size_t pos = 0;
      try {
        (void)std::stoll(value, &pos);
      } catch (const std::exception&) {
        pos = std::string::npos;
      }
      if (pos != value.size()) {
        throw std::runtime_error("flag --" + name + " expects an integer, got '" +
                                 value + "'");
      }
      break;
    }
    case Kind::kDouble: {
      std::size_t pos = 0;
      double v = 0.0;
      try {
        v = std::stod(value, &pos);
      } catch (const std::exception&) {
        pos = std::string::npos;
      }
      if (pos != value.size() || !std::isfinite(v)) {
        throw std::runtime_error("flag --" + name +
                                 " expects a finite number, got '" + value +
                                 "'");
      }
      break;
    }
    case Kind::kBool:
      if (value != "true" && value != "false" && value != "1" && value != "0") {
        throw std::runtime_error("flag --" + name +
                                 " expects true/false, got '" + value + "'");
      }
      break;
    case Kind::kString:
      break;
  }
  it->second.value = value;
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      set_value(arg.substr(0, eq), arg.substr(eq + 1));
      continue;
    }
    auto it = flags_.find(arg);
    if (it != flags_.end() && it->second.kind == Kind::kBool) {
      it->second.value = "true";
      continue;
    }
    if (i + 1 >= argc) {
      throw std::runtime_error("flag --" + arg + " is missing a value");
    }
    set_value(arg, argv[++i]);
  }
  return true;
}

const Cli::Flag& Cli::find(const std::string& name, Kind kind) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    throw std::runtime_error("flag not registered: --" + name);
  }
  if (it->second.kind != kind) {
    throw std::runtime_error("flag --" + name + " accessed with wrong type");
  }
  return it->second;
}

std::int64_t Cli::get_int(const std::string& name) const {
  return std::stoll(find(name, Kind::kInt).value);
}

double Cli::get_double(const std::string& name) const {
  return std::stod(find(name, Kind::kDouble).value);
}

std::string Cli::get_string(const std::string& name) const {
  return find(name, Kind::kString).value;
}

bool Cli::get_bool(const std::string& name) const {
  const std::string& v = find(name, Kind::kBool).value;
  return v == "true" || v == "1";
}

std::string Cli::help() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nFlags:\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << " (default: " << flag.def << ")\n      "
       << flag.help << "\n";
  }
  return os.str();
}

}  // namespace ncsw::util
