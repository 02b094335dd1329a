/**
 * @file
 * Column-aligned plain-text table printer the figure commands use to
 * emit the rows/series of the paper's figures and tables.
 */

#ifndef STFM_HARNESS_TABLE_HH
#define STFM_HARNESS_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace stfm
{

class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format @p value with @p precision digits after the decimal point. */
std::string fmt(double value, int precision = 2);

} // namespace stfm

#endif // STFM_HARNESS_TABLE_HH
