/**
 * @file
 * The shared entry point of the bench and example programs.
 *
 * Each program defines programMain() instead of main(); the main() in
 * program_main.cc runs it and turns a FatalError -- bad input such as
 * a truncated checkpoint, a malformed trace or fault plan -- into its
 * message on stderr and exit status 1, instead of an uncaught
 * exception and an abort. Sweeps already rethrow a worker's error on
 * the calling thread (sim::parallelMap), so this covers them too.
 */

#ifndef NOCSTAR_SIM_PROGRAM_MAIN_HH
#define NOCSTAR_SIM_PROGRAM_MAIN_HH

/** A program's body; its return value is the exit status. */
int programMain(int argc, char **argv);

#endif // NOCSTAR_SIM_PROGRAM_MAIN_HH
