// Library classes no binary uses (AUD-U1): a class that only a test names
// is flagged; a class used only from a neighbour in its own header, and a
// struct used only as another struct's member type, stay clean.
#pragma once

namespace mwp {

class Orphan {  // AUD-U1: only tests/unused_class_test.cc names it
 public:
  int Twice(int x) const;
};

class Sink {  // clean: SinkLine's destructor calls Sink::Write
 public:
  static void Write(int value);
};

class SinkLine {
 public:
  ~SinkLine() { Sink::Write(value_); }

 private:
  int value_ = 0;
};

struct Spread {  // clean: Sample's member type
  double Mean() const;
  double log_mean = 0.0;
};

struct Sample {
  Spread spread;
};

}  // namespace mwp
