#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace m2::harness {

/// Fixed-width text table in which the figure printer (bench/figures.hpp)
/// prints the rows and series of each reproduced figure.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  void set_header(std::vector<std::string> header);
  void add_row(std::vector<std::string> row);
  void print(std::ostream& os) const;

  /// Formats a double with `prec` digits after the point.
  static std::string num(double v, int prec = 1);
  /// Formats a throughput in thousands of commands per second.
  static std::string kcps(double commands_per_sec);

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace m2::harness
