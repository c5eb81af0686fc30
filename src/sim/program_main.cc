/**
 * @file
 * main() for the bench and example programs (see program_main.hh).
 */

#include "sim/program_main.hh"

#include <cstdio>

#include "sim/logging.hh"

int
main(int argc, char **argv)
{
    try {
        return programMain(argc, argv);
    } catch (const nocstar::FatalError &err) {
        std::fprintf(stderr, "%s\n", err.what());
        return 1;
    }
}
