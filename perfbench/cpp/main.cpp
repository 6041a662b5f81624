// pb — the real-plane benchmark binary.
//   pb load --workload W --seed N --seconds S [...]   load generator
//   pb host ...                                       target host (launched
//                                                     by the load generator)
#include <cstdio>
#include <cstring>

#include "host.h"

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "host") == 0) {
    return pb::host_main(argc - 2, argv + 2);
  }
  if (argc >= 2 && std::strcmp(argv[1], "load") == 0) {
    return pb::load_main(argc - 2, argv + 2);
  }
  std::fprintf(stderr, "usage: pb load --workload W --seed N --seconds S [--fault F]\n");
  return 2;
}
