#include "cli.hpp"

#include <cmath>
#include <cstdlib>
#include <iostream>

namespace polis::cli {

namespace {

std::string shortest(double x) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, x).ptr);
}

void print_help(const std::string& tool, const std::vector<Option>& rows,
                const std::string& epilog) {
  std::cout << "usage: " << tool;
  for (const Option& row : rows)
    if (row.name.empty()) std::cout << " " << row.metavar;
  std::cout << " [options]\n";
  for (const Option& row : rows) {
    std::string left = "  " + (row.name.empty() ? row.metavar : row.name);
    if (!row.name.empty() && row.arity == Option::Arity::kOne)
      left += " " + row.metavar;
    if (row.arity == Option::Arity::kOptional) left += " [" + row.metavar + "]";
    left += left.size() < 25 ? std::string(26 - left.size(), ' ')
                             : "\n" + std::string(26, ' ');
    std::cout << left << row.help << "\n";
  }
  std::cout << "  --help, -h              print this help and exit\n"
               "options take a value as '--opt VALUE' or '--opt=VALUE'\n"
            << epilog;
}

}  // namespace

Option flag(std::string name, bool* dst, std::string help) {
  return {std::move(name), Option::Arity::kNone, "", std::move(help), "",
          [dst](const std::string*) { return *dst = true; }};
}

Option text(std::string name, std::string* dst, std::string metavar,
            std::string help) {
  return {std::move(name), Option::Arity::kOne, std::move(metavar),
          std::move(help), "",
          [dst](const std::string* v) { *dst = *v; return true; }};
}

Option texts(std::string name, std::vector<std::string>* dst,
             std::string metavar, std::string help) {
  return {std::move(name), Option::Arity::kOne, std::move(metavar),
          help + " (repeatable)", "",
          [dst](const std::string* v) { dst->push_back(*v); return true; }};
}

Option optional(std::string name, bool* given, std::string* dst,
                std::string metavar, std::string help) {
  return {std::move(name), Option::Arity::kOptional, std::move(metavar),
          std::move(help), "", [given, dst](const std::string* v) {
            if (v != nullptr) *dst = *v;
            return *given = true;
          }};
}

Option real(std::string name, double* dst, double lo, bool lo_open,
            std::string metavar, std::string help) {
  return {std::move(name), Option::Arity::kOne, std::move(metavar),
          help + " (default " + shortest(*dst) + ")",
          "a finite number " + std::string(lo_open ? "> " : ">= ") +
              shortest(lo),
          [=](const std::string* v) {
            const std::optional<double> x = number<double>(*v);
            if (!x || !std::isfinite(*x) || *x < lo || (lo_open && *x == lo))
              return false;
            *dst = *x;
            return true;
          }};
}

void usage_error(const std::string& tool, const std::string& what) {
  std::cerr << tool << ": " << what << "\n"
            << "run '" << tool << " --help' for the options\n";
  std::exit(2);
}

void parse(const std::string& tool, const std::vector<Option>& rows, int argc,
           char** argv, const std::string& epilog) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (const std::string& a : args)
    if (a == "--help" || a == "-h") {
      print_help(tool, rows, epilog);
      std::exit(0);
    }
  const auto store = [&](const Option& row, const std::string* value) {
    if (!row.set(value))
      usage_error(tool, (row.name.empty() ? row.metavar : row.name) +
                            " must be " + row.expects + " (got '" + *value +
                            "')");
  };
  size_t i = 0;
  for (const Option& row : rows) {
    if (!row.name.empty()) continue;
    if (i >= args.size() || args[i].starts_with('-'))
      usage_error(tool, "missing " + row.metavar);
    store(row, &args[i++]);
  }
  for (; i < args.size(); ++i) {
    const std::string& raw = args[i];
    const size_t eq = raw.starts_with("--") ? raw.find('=') : raw.npos;
    const std::string name = raw.substr(0, eq);
    const Option* row = nullptr;
    for (const Option& r : rows)
      if (!r.name.empty() && r.name == name) row = &r;
    if (row == nullptr) usage_error(tool, "unknown option '" + raw + "'");
    std::optional<std::string> value;
    if (eq != raw.npos) value = raw.substr(eq + 1);
    if (row->arity == Option::Arity::kNone && value)
      usage_error(tool, "option '" + name + "' does not take a value (got '" +
                            raw + "')");
    if (row->arity == Option::Arity::kOne && !value) {
      if (i + 1 >= args.size()) usage_error(tool, "missing value for " + name);
      value = args[++i];
    }
    if (row->arity == Option::Arity::kOptional && !value &&
        i + 1 < args.size() && !args[i + 1].starts_with("--"))
      value = args[++i];
    store(*row, value ? &*value : nullptr);
  }
}

}  // namespace polis::cli
