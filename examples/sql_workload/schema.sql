-- The webshop of examples/sql_workload: a product catalog, the customers
-- and their purchases. This script creates the tables and seeds the
-- catalog rows; main.go bulk-loads 30,000 purchases (product 1-8,
-- customer 1-5, day 0-364) so the placement decision has real bytes
-- behind it. FLOAT columns take float literals: the engine refuses a value
-- whose kind differs from its column's.

CREATE TABLE products (
    pr_id INT,
    pr_name STRING,
    pr_category STRING,
    pr_price FLOAT,
    PRIMARY KEY (pr_id)
);

CREATE TABLE customers (
    c_id INT,
    c_name STRING,
    c_region STRING,
    PRIMARY KEY (c_id)
);

CREATE TABLE purchases (
    pu_id INT,
    pu_product INT,
    pu_customer INT,
    pu_day DATE,
    PRIMARY KEY (pu_id)
);

CREATE INDEX purchases_customer ON purchases (pu_customer);

INSERT INTO products VALUES
    (1, 'kettle', 'kitchen', 24.5),
    (2, 'toaster', 'kitchen', 39.0),
    (3, 'blender', 'kitchen', 59.9),
    (4, 'desk lamp', 'office', 18.0),
    (5, 'office chair', 'office', 149.0),
    (6, 'notebook', 'office', 3.5),
    (7, 'headphones', 'audio', 79.0),
    (8, 'speaker', 'audio', 119.5);

INSERT INTO customers VALUES
    (1, 'ada', 'north'),
    (2, 'grace', 'south'),
    (3, 'edsger', 'north'),
    (4, 'barbara', 'east'),
    (5, 'donald', 'west');
