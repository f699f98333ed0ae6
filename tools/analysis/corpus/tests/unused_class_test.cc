// A test is not a user: AUD-U1 still flags Orphan.
#include "exp/unused_class.h"

int TwiceTwo() { return mwp::Orphan().Twice(2); }
