"""`python -m polymat`: the same command line as the `polymat` script."""

from .cli import entrypoint

# a spawned worker process imports this module again, as __mp_main__
if __name__ == "__main__":
    entrypoint()
