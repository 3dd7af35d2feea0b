#ifndef CLOUDIQ_COLUMNAR_VALUE_H_
#define CLOUDIQ_COLUMNAR_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace cloudiq {

// Column types supported by the engine. DATE is stored as days since
// 1970-01-01 (int32 range), DECIMAL as a scaled int64 (two implied
// fraction digits, as TPC-H prices need).
enum class ColumnType : uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
  kDate = 3,
  kDecimal = 4,
};

const char* ColumnTypeName(ColumnType type);

// A single column's vector of values, in columnar form. Only the member
// matching the type is populated.
struct ColumnVector {
  ColumnType type = ColumnType::kInt64;
  std::vector<int64_t> ints;        // kInt64 / kDate / kDecimal
  std::vector<double> doubles;      // kDouble
  std::vector<std::string> strings; // kString

  size_t size() const {
    switch (type) {
      case ColumnType::kDouble:
        return doubles.size();
      case ColumnType::kString:
        return strings.size();
      default:
        return ints.size();
    }
  }
  void reserve(size_t n) {
    switch (type) {
      case ColumnType::kDouble:
        doubles.reserve(n);
        break;
      case ColumnType::kString:
        strings.reserve(n);
        break;
      default:
        ints.reserve(n);
    }
  }
  void resize(size_t n) {
    switch (type) {
      case ColumnType::kDouble:
        doubles.resize(n);
        break;
      case ColumnType::kString:
        strings.resize(n);
        break;
      default:
        ints.resize(n);
    }
  }
  // Appends `src`'s value at `row`; `src` must have this vector's type
  // family. The one value-copy step between typed vectors.
  void Append(const ColumnVector& src, size_t row) {
    switch (type) {
      case ColumnType::kDouble:
        doubles.push_back(src.doubles[row]);
        break;
      case ColumnType::kString:
        strings.push_back(src.strings[row]);
        break;
      default:
        ints.push_back(src.ints[row]);
    }
  }
};

// Days since epoch for a calendar date (proleptic Gregorian).
int64_t DaysFromCivil(int year, int month, int day);
// Inverse of DaysFromCivil.
void CivilFromDays(int64_t days, int* year, int* month, int* day);

// Scaled-decimal helpers (2 fraction digits).
inline int64_t DecimalFromDouble(double v) {
  return static_cast<int64_t>(v * 100.0 + (v >= 0 ? 0.5 : -0.5));
}
inline double DecimalToDouble(int64_t v) { return v / 100.0; }

}  // namespace cloudiq

#endif  // CLOUDIQ_COLUMNAR_VALUE_H_
