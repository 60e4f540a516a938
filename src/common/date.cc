#include "common/date.h"

#include <cstdio>

namespace softdb {

namespace {

// Days from 0000-03-01 to the civil date, using Howard Hinnant's algorithm.
// Shifting the year to start in March puts the leap day last, which makes
// the arithmetic branch-free.
std::int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);           // [0, 399]
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;  // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;           // [0, 146096]
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

void CivilFromDays(std::int64_t z, int* yy, int* mm, int* dd) {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);  // [0, 146096]
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);  // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                       // [0, 11]
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;               // [1, 31]
  const unsigned m = mp + (mp < 10 ? 3 : -9);                    // [1, 12]
  *yy = static_cast<int>(y + (m <= 2));
  *mm = static_cast<int>(m);
  *dd = static_cast<int>(d);
}

}  // namespace

std::int64_t Date::FromYmd(int year, int month, int day) {
  return DaysFromCivil(year, month, day);
}

bool Date::IsLeapYear(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int Date::DaysInMonth(int year, int month) {
  static constexpr int kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (month < 1 || month > 12) return 0;
  if (month == 2 && IsLeapYear(year)) return 29;
  return kDays[month - 1];
}

Result<std::int64_t> Date::Parse(const std::string& text) {
  int y = 0, m = 0, d = 0;
  char extra = 0;
  if (std::sscanf(text.c_str(), "%d-%d-%d%c", &y, &m, &d, &extra) != 3) {
    return Status::InvalidArgument("malformed date: '" + text +
                                   "' (want YYYY-MM-DD)");
  }
  if (y < 1600 || y > 9999 || m < 1 || m > 12 || d < 1 ||
      d > DaysInMonth(y, m)) {
    return Status::InvalidArgument("date out of range: '" + text + "'");
  }
  return FromYmd(y, m, d);
}

std::string Date::ToString(std::int64_t days) {
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  // Room for three full ints ("-2147483648" is 11 chars), two dashes and
  // the terminator, so the compiler can prove the output is never cut.
  char buf[3 * 11 + 2 + 1];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return buf;
}

void Date::ToYmd(std::int64_t days, int* year, int* month, int* day) {
  CivilFromDays(days, year, month, day);
}

}  // namespace softdb
