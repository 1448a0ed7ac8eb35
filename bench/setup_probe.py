"""Time one fresh process's set-up: import mecfl, synthesize the users and the test set.

Usage: python3 bench/setup_probe.py USERS SAMPLES_PER_USER SEED
Prints the set-up time in seconds on one line.
"""

import sys
import time

import env

env.pin_thread_pools()


def main(argv) -> int:
    users, samples, seed = (int(arg) for arg in argv)
    start = time.perf_counter()
    env.use_checkout_source()
    from mecfl import io

    spec = io.ExperimentSpec(user_count=users, samples_per_user=samples, seed=seed)
    io.synthesize_users(spec)
    io.load_test_dataset(spec)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
