// Must NOT compile: streaming a Secret into a log statement. The deleted
// templated operator<< wins overload resolution for any stream type, so the
// leak dies at compile time.
#include "common/logging.h"
#include "common/secret.h"

void LeakToLog() {
  deta::Secret<deta::Bytes> key(deta::Bytes{0x01, 0x02});
  LOG_INFO << "master secret is " << key;
}
